package client

// PeerSession multiplexes many concurrent generation downloads over one
// authenticated connection: it performs the handshake once, issues a
// GET_MUX request per generation, and demultiplexes the interleaved DATA
// frames by the file-id every message carries in its first 8 header
// bytes. Every fetch flavour runs on sessions (sessionset.go); GET_MUX
// is the only download request the client sends.
//
// Buffer ownership (DESIGN.md §12): the demux loop owns each frame
// buffer from FrameReader.Next until it hands it to a stream's frame
// channel, where ownership transfers to the stream's Fetch loop, which
// releases it after feeding the decoder. Frames for unknown or dead
// streams are released on the spot, so a cancelled stream can never
// leak its in-flight buffers.
//
// Failure scoping: STREAM_ERROR frames and per-message digest failures
// kill only the stream they name — every other stream on the session
// keeps running. Read errors on the connection itself fail all streams
// with the retriable errPeerAborted class.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"asymshare/internal/auth"
	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// sessStreamBuffer is the per-stream frame channel depth: enough to
// keep the decoder busy while the demux loop reads ahead, small enough
// that one slow stream backpressures the connection instead of hoarding
// pooled buffers.
const sessStreamBuffer = 64

// ErrSessionClosed is returned by Fetch on a session whose connection
// has already failed or been closed.
var ErrSessionClosed = errors.New("client: peer session closed")

// sessStream is the demux target for one in-flight generation.
type sessStream struct {
	fileID uint64
	frames chan *wire.Buf

	// mute: a short surplus count will say nothing about the peer's
	// pacing. Set for a stream that asks for a share and, under the
	// session's mutex, for one the peer's own STOP has ended.
	mute bool

	failOnce sync.Once
	err      error
	done     chan struct{}
}

// fail records the stream's terminal error and wakes its Fetch loop.
func (st *sessStream) fail(err error) {
	st.failOnce.Do(func() {
		st.err = err
		close(st.done)
	})
}

// deliver is the demux loop's hand-off of one DATA frame: ownership
// passes to the stream's Fetch loop, or the frame is released here if
// the stream has ended. When the stream ends while its queue has room
// both arms of the first select are ready and the send may win — after
// unregister's drain has already run. So a sender that then finds the
// stream ended drains too: whichever of fail and send came last, the
// side that followed it empties the queue. It returns what it released.
func (st *sessStream) deliver(b *wire.Buf) (frames, bytes int) {
	select {
	case st.frames <- b:
		select {
		case <-st.done:
			return st.drain()
		default:
			return 0, 0
		}
	case <-st.done:
		n := b.Len()
		b.Release()
		return 1, n
	}
}

// drain releases whatever is queued, without blocking, and returns how
// much that was.
func (st *sessStream) drain() (frames, bytes int) {
	for {
		select {
		case b, ok := <-st.frames:
			if !ok {
				return frames, bytes
			}
			frames++
			bytes += b.Len()
			b.Release()
		default:
			return frames, bytes
		}
	}
}

// tailSlots is how many ended generations a session keeps a surplus
// count open for: as many as a fetch call runs chunk streams on it, so
// a generation's tail frames have about one chunk's download to arrive
// before it is taken not to have had any.
const tailSlots = fetchFileStreams

// tail is one ended generation's surplus count.
type tail struct {
	fileID uint64
	frames int
	mute   bool // see sessStream.mute; the peer's STOP may still come
	open   bool // false: the slot has not been used yet
}

// PeerSession is one authenticated, multiplexed connection to a storage
// peer. Safe for concurrent Fetch calls; create with NewPeerSession and
// Close when done.
type PeerSession struct {
	c           *Client
	addr        string
	conn        net.Conn
	fingerprint string
	fr          *wire.FrameReader // read by the demux loop only
	cw          *sessionWriter

	mu      sync.Mutex
	streams map[uint64]*sessStream
	dead    error // conn-level failure, set before closed is closed

	// tails is a ring of the generations whose streams ended most
	// recently, each with the surplus frames seen for it since.
	tails    [tailSlots]tail
	tailNext int

	surplus       atomic.Uint64 // bytes; read by the session set
	surplusFrames *metrics.Counter
	surplusBytes  *metrics.Counter

	closed    chan struct{} // demux loop exited
	closeOnce sync.Once
}

// sessionWriter serializes control writes from concurrent streams over
// one batched FrameWriter.
type sessionWriter struct {
	mu sync.Mutex
	fw *wire.FrameWriter
}

func (sw *sessionWriter) writeFrame(t wire.Type, payload []byte) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.fw.WriteFrame(t, payload)
}

// NewPeerSession dials addr, completes the mutual handshake and starts
// the demux loop. The context bounds only the dial; the session then
// lives until Close or a connection failure.
func (c *Client) NewPeerSession(ctx context.Context, addr string) (*PeerSession, error) {
	pc, err := c.dial(ctx, addr, wire.RoleUser)
	if err != nil {
		return nil, err
	}
	s := &PeerSession{
		c:           c,
		addr:        addr,
		conn:        pc.conn,
		fingerprint: auth.Fingerprint(pc.peerKey),
		fr:          pc.fr,
		cw:          &sessionWriter{fw: pc.fw},
		streams:     make(map[uint64]*sessStream),
		closed:      make(chan struct{}),
	}
	s.surplusFrames, s.surplusBytes = c.m.surplusFor(addr)
	go s.demux()
	return s, nil
}

// Fingerprint returns the peer's key fingerprint.
func (s *PeerSession) Fingerprint() string { return s.fingerprint }

// Addr returns the peer's address.
func (s *PeerSession) Addr() string { return s.addr }

// Close tears the session down: best-effort BYE, close the connection,
// wait for the demux loop (which fails any remaining streams).
func (s *PeerSession) Close() error {
	s.closeOnce.Do(func() {
		_ = s.cw.writeFrame(wire.TypeBye, nil)
		s.conn.Close()
	})
	<-s.closed
	return nil
}

// register adds a stream, refusing duplicates and dead sessions.
func (s *PeerSession) register(st *sessStream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if _, ok := s.streams[st.fileID]; ok {
		return fmt.Errorf("client: stream for file %d already open on session to %s", st.fileID, s.addr)
	}
	s.streams[st.fileID] = st
	return nil
}

// unregister removes st if it is still the registered stream for its
// file-id, opens the generation's surplus count — closing the oldest
// one, with its verdict if it has not had one — then drains and
// releases any frames the demux loop had already queued; one that slips
// in behind the drain is deliver's to release.
func (s *PeerSession) unregister(st *sessStream) {
	s.mu.Lock()
	if s.streams[st.fileID] == st {
		delete(s.streams, st.fileID)
	}
	oldest := s.tails[s.tailNext]
	s.tails[s.tailNext] = tail{fileID: st.fileID, mute: st.mute, open: true}
	s.tailNext = (s.tailNext + 1) % tailSlots
	s.mu.Unlock()
	if oldest.open && !oldest.mute && oldest.frames < surplusEvidence {
		s.c.health.surplusVerdict(s.addr, false)
	}
	st.fail(ErrSessionClosed) // no-op if already terminal; stops deliveries
	frames, bytes := st.drain()
	s.noteSurplus(st.fileID, frames, bytes)
}

// noteSurplus accounts DATA frames of fileID that arrived for nothing:
// its stream had ended. The frame that brings the generation's count to
// surplusEvidence is its verdict.
func (s *PeerSession) noteSurplus(fileID uint64, frames, bytes int) {
	if frames == 0 {
		return
	}
	s.surplus.Add(uint64(bytes))
	s.surplusFrames.Add(uint64(frames))
	s.surplusBytes.Add(uint64(bytes))
	outran := false
	s.mu.Lock()
	if t := s.tailLocked(fileID); t != nil {
		outran = t.frames < surplusEvidence && t.frames+frames >= surplusEvidence
		t.frames += frames
	}
	s.mu.Unlock()
	if outran {
		s.c.health.surplusVerdict(s.addr, true)
	}
}

// tailLocked returns the open surplus count for fileID, if the session
// still keeps one. Newest first: a generation asked for twice (the
// ladder's second round) counts toward the stream that ended last.
func (s *PeerSession) tailLocked(fileID uint64) *tail {
	for i := 1; i <= tailSlots; i++ {
		if t := &s.tails[(s.tailNext-i+tailSlots)%tailSlots]; t.open && t.fileID == fileID {
			return t
		}
	}
	return nil
}

// lookup returns the stream registered for fileID, if any.
func (s *PeerSession) lookup(fileID uint64) *sessStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[fileID]
}

// isDead reports whether the connection has failed: every stream on the
// session has ended and no new one will register.
func (s *PeerSession) isDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead != nil
}

// failAll marks the session dead and fails every open stream.
func (s *PeerSession) failAll(err error) {
	s.mu.Lock()
	if s.dead == nil {
		s.dead = err
	}
	streams := make([]*sessStream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = make(map[uint64]*sessStream)
	s.mu.Unlock()
	for _, st := range streams {
		st.fail(err)
	}
}

// demux is the session's read loop: it routes DATA frames to their
// stream by the file-id in the message header, turns STOP frames into
// per-stream end-of-stream, and scopes STREAM_ERROR frames to the one
// stream they name. It exits on any connection-level failure, failing
// every open stream with a retriable classification.
func (s *PeerSession) demux() {
	defer close(s.closed)
	for {
		t, b, err := s.fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = fmt.Errorf("%w (%s): %v", errPeerAborted, s.addr, err)
			}
			s.failAll(err)
			return
		}
		switch t {
		case wire.TypeData:
			payload := b.Bytes()
			if len(payload) < rlnc.MessageHeaderBytes {
				b.Release()
				s.failAll(fmt.Errorf("%w: %d-byte data frame", wire.ErrBadFrame, len(payload)))
				return
			}
			fileID := binary.BigEndian.Uint64(payload)
			st := s.lookup(fileID)
			if st == nil {
				// Stream stopped or never existed: tail frames in flight.
				s.noteSurplus(fileID, 1, b.Len())
				b.Release()
				continue
			}
			frames, bytes := st.deliver(b)
			s.noteSurplus(fileID, frames, bytes)
		case wire.TypeStop:
			var stop wire.Stop
			uerr := stop.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.mu.Lock()
			st := s.streams[stop.FileID]
			delete(s.streams, stop.FileID)
			if st != nil {
				st.mute = true
			} else if t := s.tailLocked(stop.FileID); t != nil {
				t.mute = true // it had sent everything before our STOP landed
			}
			s.mu.Unlock()
			if st != nil {
				close(st.frames) // peer exhausted: orderly end-of-stream
			}
		case wire.TypeStreamError:
			var se wire.StreamError
			uerr := se.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.mu.Lock()
			st := s.streams[se.FileID]
			delete(s.streams, se.FileID)
			s.mu.Unlock()
			if st != nil {
				st.fail(&wire.RemoteError{Code: se.Code, Reason: se.Reason})
			}
		case wire.TypeBusy:
			// Stream-scoped shed: the peer refused, preempted, or
			// expired the one stream the frame names. Like a duplicate
			// STREAM_ERROR, a BUSY for an unknown stream is ignored.
			var bz wire.Busy
			uerr := bz.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.mu.Lock()
			st := s.streams[bz.FileID]
			delete(s.streams, bz.FileID)
			s.mu.Unlock()
			if st != nil {
				st.fail(&bz)
			}
		case wire.TypeError:
			var e wire.ErrorMsg
			uerr := e.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.failAll(&wire.RemoteError{Code: e.Code, Reason: e.Reason})
			return
		default:
			b.Release()
			s.failAll(fmt.Errorf("%w: %s during muxed fetch", wire.ErrUnexpectedFrame, t))
			return
		}
	}
}

// stop asks the peer to cancel one stream (best-effort).
func (s *PeerSession) stop(fileID uint64) {
	stopMsg := wire.Stop{FileID: fileID}
	_ = s.cw.writeFrame(wire.TypeStop, stopMsg.Marshal())
}

// Fetch streams one generation into sink over the session, returning
// when the decode completes (sink.Done), the peer exhausts its stored
// messages, the context is cancelled, or the stream fails. onBytes, if
// non-nil, is called with each message's wire size for receipt
// accounting. Digest failures are tolerated: the forged message is
// dropped and the stream continues.
func (s *PeerSession) Fetch(ctx context.Context, fileID uint64, sink rlnc.ByteSink, onBytes func(int)) error {
	return s.FetchStream(ctx, StreamRequest{FileID: fileID}, sink, onBytes)
}

// StreamRequest names one muxed stream's inputs beyond the defaults:
// the generation to fetch, how much of it, and the wire priority
// propagated with the request.
type StreamRequest struct {
	FileID uint64

	// Limit is how many messages the peer is asked for before it ends
	// the stream itself; zero asks for all it holds.
	Limit uint32

	// Priority is carried in the GET_MUX frame; higher values win
	// admission ties at an overloaded peer. Zero is normal.
	Priority uint8
}

// FetchStream is Fetch with an explicit stream request. The context's
// deadline, if any, is propagated on the wire as the remaining budget
// so the peer can drop the stream once it passes.
func (s *PeerSession) FetchStream(ctx context.Context, req StreamRequest, sink rlnc.ByteSink, onBytes func(int)) error {
	fileID := req.FileID
	st := &sessStream{
		fileID: fileID,
		mute:   req.Limit > 0,
		frames: make(chan *wire.Buf, sessStreamBuffer),
		done:   make(chan struct{}),
	}
	if err := s.register(st); err != nil {
		return err
	}
	defer s.unregister(st)
	get := wire.Get{FileID: fileID, Limit: req.Limit, DeadlineMillis: deadlineMillis(ctx), Priority: req.Priority}
	if err := s.cw.writeFrame(wire.TypeGetMux, get.Marshal()); err != nil {
		// The connection is gone even if the demux loop has not read
		// its way to the failure yet: fail the session now, so callers
		// see a dead session rather than a stream-scoped error.
		err = fmt.Errorf("%w (%s): %v", errPeerAborted, s.addr, err)
		s.failAll(err)
		s.conn.Close()
		return err
	}
	for {
		select {
		case <-ctx.Done():
			s.stop(fileID)
			return nil // cancelled: decode completed elsewhere, or deadline
		case <-st.done:
			if errors.Is(st.err, ErrSessionClosed) {
				return nil
			}
			return st.err
		case b, ok := <-st.frames:
			if !ok {
				return nil // peer exhausted (orderly STOP)
			}
			_, addErr := sink.AddBytes(b.Bytes())
			n := b.Len()
			b.Release()
			s.c.m.received.Add(uint64(n))
			s.c.m.recvRate.Mark(uint64(n))
			if onBytes != nil {
				onBytes(n)
			}
			if addErr != nil && !errors.Is(addErr, rlnc.ErrBadDigest) {
				s.stop(fileID)
				return addErr
			}
			if sink.Done() {
				s.stop(fileID)
				return nil
			}
		}
	}
}
