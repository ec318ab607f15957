// Package tracker implements the out-of-band content-location service
// the paper assumes (Sec. II: "services like BitTorrent assume some
// out-of-band mechanisms to locate content"). Owners announce which
// peers hold messages of a file-id; users look the set up before
// fetching. The tracker is soft-state: announcements expire unless
// refreshed, so departed peers age out.
//
// The protocol is three JSON-over-frame messages on the asymshare wire
// framing: ANNOUNCE {fileID, addr, ttl}, LOOKUP {fileID} and ADDRS
// {addrs}. The tracker is discovery-only — it never sees message
// payloads, digests or secrets.
package tracker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// Frame types carried over the wire framing, in a range disjoint from
// the peer protocol.
const (
	typeAnnounce wire.Type = 64 + iota
	typeLookup
	typeAddrs
	typeOK
)

// DefaultTTL is how long an announcement lives without refresh.
const DefaultTTL = 10 * time.Minute

// connTimeout bounds one tracker connection: a client announces or
// looks up and says BYE within a round trip, so a connection that is
// still open after this is a stranger holding a goroutine. A variable
// so tests can shorten it.
var connTimeout = 30 * time.Second

// ErrBadRequest is returned for malformed tracker messages.
var ErrBadRequest = errors.New("tracker: malformed request")

type announceMsg struct {
	FileID uint64 `json:"fileId"`
	Addr   string `json:"addr"`
	TTLSec int    `json:"ttlSec,omitempty"`
}

type lookupMsg struct {
	FileID uint64 `json:"fileId"`
}

type addrsMsg struct {
	Addrs []string `json:"addrs"`
}

type entry struct {
	addr    string
	expires time.Time
}

// Exported tracker metric names (see DESIGN.md §7).
const (
	MetricAnnounces = "tracker_announces_total"
	MetricLookups   = "tracker_lookups_total"
)

// Server is a tracker instance.
type Server struct {
	maxTTL time.Duration
	now    func() time.Time
	tr     transport.Transport

	announces *metrics.Counter
	lookups   *metrics.Counter

	mu     sync.Mutex
	files  map[uint64]map[string]entry
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// NewServer returns a tracker. maxTTL caps client-requested TTLs; zero
// means DefaultTTL.
func NewServer(maxTTL time.Duration) *Server {
	if maxTTL <= 0 {
		maxTTL = DefaultTTL
	}
	s := &Server{
		maxTTL: maxTTL,
		now:    time.Now,
		files:  make(map[uint64]map[string]entry),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Instrument attaches announce/lookup counters. Call before Start; a
// nil registry leaves the server uninstrumented.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.announces = reg.Counter(MetricAnnounces, "Announce requests accepted.")
	s.lookups = reg.Counter(MetricLookups, "Lookup requests served.")
}

// SetTransport swaps the listener transport (nil keeps real TCP).
// Call before Start; tests attach an in-memory netsim host here.
func (s *Server) SetTransport(tr transport.Transport) { s.tr = tr }

// Start listens and serves.
func (s *Server) Start(addr string) error {
	tr := s.tr
	if tr == nil {
		tr = transport.Default
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("tracker: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("tracker: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listen address, or nil before Start.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the tracker and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(connTimeout))
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	// Abort reads when the server closes.
	stop := make(chan struct{})
	defer close(stop)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-s.ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()
	fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	for {
		t, b, err := fr.Next()
		if err != nil {
			return
		}
		done := s.serve(fw, t, b.Bytes())
		b.Release()
		if done {
			return
		}
	}
}

// serve answers one request frame; a true return closes the connection.
func (s *Server) serve(fw *wire.FrameWriter, t wire.Type, payload []byte) bool {
	switch t {
	case typeAnnounce:
		var msg announceMsg
		if err := json.Unmarshal(payload, &msg); err != nil || msg.Addr == "" {
			_ = fw.WriteError(wire.CodeBadRequest, "malformed announce")
			return true
		}
		s.announce(msg)
		s.announces.Inc()
		return fw.WriteFrame(typeOK, nil) != nil
	case typeLookup:
		var msg lookupMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			_ = fw.WriteError(wire.CodeBadRequest, "malformed lookup")
			return true
		}
		blob, err := json.Marshal(addrsMsg{Addrs: s.Lookup(msg.FileID)})
		if err != nil {
			return true
		}
		s.lookups.Inc()
		return fw.WriteFrame(typeAddrs, blob) != nil
	case wire.TypeBye:
		return true
	default:
		_ = fw.WriteError(wire.CodeBadRequest, "unexpected frame "+t.String())
		return true
	}
}

func (s *Server) announce(msg announceMsg) {
	ttl := s.maxTTL
	if msg.TTLSec > 0 {
		if requested := time.Duration(msg.TTLSec) * time.Second; requested < ttl {
			ttl = requested
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.files[msg.FileID]
	if !ok {
		m = make(map[string]entry)
		s.files[msg.FileID] = m
	}
	m[msg.Addr] = entry{addr: msg.Addr, expires: s.now().Add(ttl)}
}

// Lookup returns the live peer addresses for a file-id, sorted.
func (s *Server) Lookup(fileID uint64) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.files[fileID]
	now := s.now()
	out := make([]string, 0, len(m))
	for addr, e := range m {
		if e.expires.Before(now) {
			delete(m, addr)
			continue
		}
		out = append(out, addr)
	}
	if len(m) == 0 {
		delete(s.files, fileID)
	}
	sort.Strings(out)
	return out
}

// FileCount returns the number of file-ids with live announcements.
func (s *Server) FileCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Announce registers peerAddr as holding messages of fileID with the
// tracker at trackerAddr, over tr (nil means real TCP). A zero ttl
// requests the tracker's maximum.
func Announce(ctx context.Context, tr transport.Transport, trackerAddr string, fileID uint64, peerAddr string, ttl time.Duration) error {
	msg := announceMsg{FileID: fileID, Addr: peerAddr, TTLSec: int(ttl / time.Second)}
	if err := call(ctx, tr, trackerAddr, typeAnnounce, msg, typeOK, nil); err != nil {
		return fmt.Errorf("tracker: announce: %w", err)
	}
	return nil
}

// Lookup queries the tracker at trackerAddr, over tr (nil means real
// TCP), for the peers holding fileID.
func Lookup(ctx context.Context, tr transport.Transport, trackerAddr string, fileID uint64) ([]string, error) {
	var msg addrsMsg
	err := call(ctx, tr, trackerAddr, typeLookup, lookupMsg{FileID: fileID}, typeAddrs, func(b []byte) error {
		if err := json.Unmarshal(b, &msg); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tracker: lookup: %w", err)
	}
	return msg.Addrs, nil
}

// call is one client exchange: dial, the request frame, the expected
// reply handed to decode (nil: an empty acknowledgement), BYE. The
// context's deadline bounds the whole exchange.
func call(ctx context.Context, tr transport.Transport, addr string, req wire.Type, v any,
	reply wire.Type, decode func([]byte) error) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if tr == nil {
		tr = transport.Default
	}
	conn, err := tr.DialContext(ctx, addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	if err := fw.WriteFrame(req, blob); err != nil {
		return err
	}
	b, err := fr.Expect(reply)
	if err != nil {
		return err
	}
	if decode != nil {
		err = decode(b.Bytes())
	}
	b.Release()
	if err != nil {
		return err
	}
	_ = fw.WriteFrame(wire.TypeBye, nil)
	return nil
}

var _ io.Closer = (*Server)(nil)
