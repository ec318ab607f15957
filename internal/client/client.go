// Package client implements the user side of Fig. 4: disseminating
// encoded message batches to storage peers (initialization, Sec. III-A)
// and later downloading from many peers in parallel to fill the remote
// download pipe beyond any single peer's upload capacity (Sec. III-B).
//
// There is one read path. A fetch call opens a session set — one
// multiplexed PeerSession per distinct peer, dialed concurrently, with
// redial, backoff and RETRY_AFTER handling owned by the set
// (sessionset.go) — and downloads each generation on the chunk ladder
// (ladder.go): every peer's stream pours into one shared rlnc.Pipeline,
// so digest checks and coefficient derivation run on the stream
// goroutines and only a short innovation check is serialized, and STOP
// goes to every peer as soon as rank k is reached — except to peers
// STOP has been seen to lose the race against, which are asked for
// their share of the generation up front. One manifest driver
// walks the chunks with a bounded in-flight window; FetchFile,
// FetchFileFrom and StreamFile are thin callers of it, Fetch its
// one-chunk case. Per-peer receipts are reported for the user's
// periodic feedback to its own peer.
//
// A whole-file fetch has no serial tail (DESIGN.md §14). The output is
// one buffer (chunk.Assembler): chunk i's download owns its slot from
// launch until the driver's deliver callback marks it Done, decodes
// straight into it, and from Done on the slot is read-only. The driver
// checks every chunk against the Sum its manifest records as soon as it
// is decoded, on the goroutine that decoded it: no flavour, StreamFile
// included, hands out a byte no recorded MD5 covers.
// The pipelines are warm: the driver keeps a free list of at most
// window engines for exactly the life of its session set, a chunk
// Retargets one and returns it once all its rungs have returned, and
// nothing — the coding secret in particular — is kept across calls.
package client

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

var (
	// ErrNoPeers is returned when a fetch is attempted with no peers.
	ErrNoPeers = errors.New("client: no peers to contact")

	// ErrIncomplete is returned when every peer is exhausted before the
	// generation could be decoded.
	ErrIncomplete = errors.New("client: peers exhausted before decode completed")

	// errPeerAborted marks a connection that died mid-stream without an
	// orderly STOP — a crashed or partitioned peer, not an exhausted
	// one. It is retriable, unlike a protocol error.
	errPeerAborted = errors.New("client: peer connection aborted mid-stream")
)

// Defaults for Options fields left zero.
const (
	DefaultDialTimeout  = 10 * time.Second
	DefaultPeerRetries  = 2
	DefaultRetryBackoff = 200 * time.Millisecond
)

// Options tunes a client's networking behaviour. The zero value gives
// sane production defaults over real TCP.
type Options struct {
	// Transport dials peers; nil means real TCP (transport.Default).
	// Tests inject an in-memory netsim fabric here.
	Transport transport.Transport

	// DialTimeout bounds each dial plus handshake. Zero means
	// DefaultDialTimeout; negative disables the bound (the caller's
	// context still applies).
	DialTimeout time.Duration

	// PeerRetries is how many consecutive times a fetch call redials a
	// peer whose connection fails (refused dial, abrupt close, reset,
	// timeout — anything but an orderly STOP or a protocol error)
	// before giving up on it. Zero means DefaultPeerRetries; negative
	// disables retries.
	PeerRetries int

	// RetryBackoff is the delay before the first retry, doubling per
	// attempt. Zero means DefaultRetryBackoff.
	RetryBackoff time.Duration

	// BreakerThreshold is how many consecutive failures quarantine a
	// peer's circuit breaker: until its cooldown lapses and a half-open
	// probe says it is back, every fetch flavour leaves the peer out of
	// its chunks — no rung, no dial — unless nothing else is left.
	// Zero means DefaultBreakerThreshold.
	BreakerThreshold int

	// BreakerCooldown is the initial quarantine after a breaker opens,
	// doubling on each failed half-open probe up to a cap. Zero means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = transport.Default
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.PeerRetries == 0 {
		o.PeerRetries = DefaultPeerRetries
	} else if o.PeerRetries < 0 {
		o.PeerRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// Client is a user agent identified by a signing key.
type Client struct {
	id      *auth.Identity
	trusted *auth.TrustSet // acceptable peer keys; nil trusts any
	opt     Options
	m       clientMetrics   // zero value records nothing; see Instrument
	health  *healthRegistry // per-peer scores + circuit breakers
}

// New returns a client with default Options. trusted, if non-nil, pins
// the set of peer keys the client will talk to (the
// mutual-authentication direction).
func New(id *auth.Identity, trusted *auth.TrustSet) (*Client, error) {
	return NewWith(id, trusted, Options{})
}

// NewWith returns a client with explicit networking options.
func NewWith(id *auth.Identity, trusted *auth.TrustSet, opts Options) (*Client, error) {
	if id == nil {
		return nil, errors.New("client: identity required")
	}
	c := &Client{id: id, trusted: trusted, opt: opts.withDefaults()}
	c.health = newHealthRegistry(&c.m, c.opt)
	return c, nil
}

// Fingerprint returns the client's key fingerprint.
func (c *Client) Fingerprint() string { return c.id.Fingerprint() }

// peerConn is one authenticated connection to a peer with the one
// reader and the one writer every frame on it crosses, from HELLO on.
type peerConn struct {
	conn    net.Conn
	fr      *wire.FrameReader
	fw      *wire.FrameWriter
	peerKey ed25519.PublicKey
}

// dial connects and completes the mutual handshake. DialTimeout bounds
// the dial AND the handshake: a listener that accepts but never speaks
// (SYN-accepted, application dead) would otherwise hang the zero-value
// dialer forever.
func (c *Client) dial(ctx context.Context, addr string, role wire.Role) (peerConn, error) {
	if c.opt.DialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.DialTimeout)
		defer cancel()
	}
	conn, err := c.opt.Transport.DialContext(ctx, addr)
	if err != nil {
		return peerConn{}, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	pc := peerConn{conn: conn, fr: wire.NewFrameReader(conn), fw: wire.NewFrameWriter(conn)}
	// A caller that stops wanting the peer mid-handshake (its fetch
	// completed elsewhere) is not held for the rest of DialTimeout.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	pc.peerKey, err = wire.InitiatorHandshake(pc.fr, pc.fw, c.id, role, c.trusted)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		return peerConn{}, fmt.Errorf("client: handshake with %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return pc, nil
}

// Disseminate uploads a batch of encoded messages to one peer,
// confirming every PUT. This is the initialization-phase transfer that
// runs "when some upload bandwidth is available".
func (c *Client) Disseminate(ctx context.Context, addr string, msgs []*rlnc.Message) error {
	u, err := c.OpenUpload(ctx, addr)
	if err != nil {
		return err
	}
	if err := u.Put(msgs); err != nil {
		u.Close()
		return err
	}
	return u.Close()
}

// roundTrip is every one-shot control RPC: dial, one request frame,
// the expected reply handed to decode (nil: an empty acknowledgement),
// BYE. It rides Upload's context binding, so a peer that authenticates
// and goes mute costs the caller its context, not forever. The peer's
// key fingerprint is returned whenever the dial succeeded.
func (c *Client) roundTrip(ctx context.Context, addr, verb string, req wire.Type, payload []byte,
	reply wire.Type, decode func([]byte) error) (string, error) {
	u, err := c.OpenUpload(ctx, addr)
	if err != nil {
		return "", err
	}
	defer u.Close()
	fingerprint := auth.Fingerprint(u.peerKey)
	err = u.fw.WriteFrame(req, payload)
	if err == nil {
		var b *wire.Buf
		if b, err = u.fr.Expect(reply); err == nil {
			if decode != nil {
				err = decode(b.Bytes())
			}
			b.Release()
		}
	}
	if err != nil {
		u.failed = true
		return fingerprint, fmt.Errorf("client: %s %s: %w", verb, addr, u.ctxErr(err))
	}
	return fingerprint, nil
}

// SendFeedback delivers per-peer receipt reports to the user's own
// peer (Sec. III-B's periodic informational update).
func (c *Client) SendFeedback(ctx context.Context, ownPeerAddr string, received map[string]uint64) error {
	return c.sendFeedback(ctx, ownPeerAddr, "feedback to", received, false)
}

// sendFeedback ships one FEEDBACK frame — receipt credits, or audit
// debits — and waits for the acknowledgement, so the ledger change is
// durable before the connection goes.
func (c *Client) sendFeedback(ctx context.Context, addr, verb string, amounts map[string]uint64, debit bool) error {
	keys := make([]string, 0, len(amounts))
	for k := range amounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fb := wire.Feedback{Entries: make([]wire.FeedbackEntry, len(keys))}
	for i, k := range keys {
		fb.Entries[i].PeerFingerprint = k
		if debit {
			fb.Entries[i].Debit = amounts[k]
		} else {
			fb.Entries[i].Bytes = amounts[k]
		}
	}
	blob, err := fb.Marshal()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(ctx, addr, verb, wire.TypeFeedback, blob, wire.TypePutOK, nil)
	return err
}

// FetchStats describes one parallel download.
type FetchStats struct {
	// BytesFrom maps peer fingerprint to message bytes received.
	BytesFrom map[string]uint64

	// Messages counts messages offered to the decoder.
	Messages int

	// Innovative counts messages that increased decoder rank.
	Innovative int

	// Rejected counts messages that failed digest authentication.
	Rejected int

	// SurplusBytes counts message bytes read off the call's sessions
	// for nothing: DATA frames that arrived after their generation had
	// been decoded and its stream ended. BytesFrom does not include
	// them. A call's total is known once its sessions close, so the
	// per-chunk stats of a manifest fetch leave it zero.
	SurplusBytes uint64

	// Elapsed is the wall-clock download time.
	Elapsed time.Duration
}

// EffectiveRate returns the achieved goodput in bytes/second.
func (s FetchStats) EffectiveRate(decodedBytes int) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(decodedBytes) / s.Elapsed.Seconds()
}

// merge adds another download's counts into s. Elapsed is wall time,
// not a sum: whoever owns the clock stamps it.
func (s *FetchStats) merge(o FetchStats) {
	s.Messages += o.Messages
	s.Innovative += o.Innovative
	s.Rejected += o.Rejected
	s.SurplusBytes += o.SurplusBytes
	for k, v := range o.BytesFrom {
		s.BytesFrom[k] += v
	}
}

// FetchRequest names every input of one generation download.
type FetchRequest struct {
	// Peers are the storage peer addresses to download from in
	// parallel.
	Peers []string

	// Params describes the generation's code (field, k, chunk size).
	Params rlnc.Params

	// FileID identifies the generation on the peers.
	FileID uint64

	// Secret is the coefficient-derivation key shared with the owner.
	Secret []byte

	// Digests, if non-nil, pins the owner-published per-message MD5
	// digests and enables authentication of every received message.
	Digests map[uint64]rlnc.Digest

	// Priority is propagated with each GET_MUX on the wire: higher values
	// win admission ties at an overloaded peer. Zero is normal. The
	// fetch context's deadline is propagated alongside it, letting the
	// peer drop work whose deadline has already passed.
	Priority uint8
}

// Fetch downloads one generation from the request's peers and decodes
// it: the one-chunk case of the read path, on a session set of its own.
func (c *Client) Fetch(ctx context.Context, req FetchRequest) ([]byte, FetchStats, error) {
	set := c.newSessionSet(ctx)
	pl := c.newPipelines(1)
	data, stats, err := c.fetchChunk(ctx, set.open(req.Peers), req, pl, nil)
	pl.close()
	stats.SurplusBytes = set.close()
	return data, stats, err
}

// deadlineMillis converts a context deadline into the wire's relative
// deadline-remaining field: milliseconds left, clamped to uint32, 0
// when the context has no deadline. An already-expired deadline maps
// to 1 ms so the peer still sees (and immediately drops) the request
// as expired work instead of treating it as unbounded.
func deadlineMillis(ctx context.Context) uint32 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		return 1
	}
	if ms > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ms)
}

func joinErrs(errs []error) string {
	var parts []string
	for _, err := range errs {
		if err != nil {
			parts = append(parts, err.Error())
		}
	}
	if len(parts) == 0 {
		return "no peer errors"
	}
	sort.Strings(parts)
	out := parts[0]
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return out
}

// fetchFileStreams is how many chunk downloads FetchFile keeps in
// flight concurrently over its sessions.
const fetchFileStreams = 4

// FetchFile downloads and reassembles a whole manifest from peers that
// each hold every chunk, enabling the chunk-streaming mode of Sec.
// III-D: up to fetchFileStreams chunks in flight, each a concurrent
// generation stream on one session per peer, so a manifest of many
// chunks pays one dial+handshake per peer instead of one per chunk per
// peer.
func (c *Client) FetchFile(ctx context.Context, addrs []string, m *chunk.Manifest,
	secret []byte) ([]byte, FetchStats, error) {
	return c.FetchFileFrom(ctx, m, secret, func(context.Context, int) ([]string, error) { return addrs, nil })
}

// FetchFileFrom is FetchFile with the peers of each chunk named by
// peersFor — a placement table, a discovery lookup. Chunks are resolved
// in order, each just before its download starts; peers shared between
// chunks share one session.
//
// The file is assembled in place (chunk.Assembler): every chunk decodes
// straight into its slot of one output buffer and is verified there
// against its Sum while the downloads behind it still run. No byte is
// returned until every chunk's sum and every per-message digest have
// passed. A manifest that fails Validate (one without a Sum on every
// chunk, say) is refused before any peer is resolved or dialled.
func (c *Client) FetchFileFrom(ctx context.Context, m *chunk.Manifest, secret []byte,
	peersFor func(ctx context.Context, chunk int) ([]string, error)) ([]byte, FetchStats, error) {
	total := FetchStats{BytesFrom: make(map[string]uint64)}
	asm, err := chunk.NewAssembler(m)
	if err != nil {
		return nil, total, err
	}
	start := time.Now()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var mu sync.Mutex // guards total
	surplus := c.fetchManifest(ctx, m, secret, peersFor, fetchFileStreams, asm.Slot,
		func(i int, _ []byte, stats FetchStats, err error) {
			if err != nil {
				cancel(fmt.Errorf("chunk %d: %w", i, err)) // the first failure wins
				return
			}
			asm.Done(i)
			mu.Lock()
			total.merge(stats)
			mu.Unlock()
		})
	total.Elapsed = time.Since(start)
	total.SurplusBytes = surplus
	if err := context.Cause(ctx); err != nil {
		return nil, total, err
	}
	data, err := asm.Finish()
	if err != nil {
		return nil, total, err
	}
	return data, total, nil
}

// fetchManifest is the one manifest driver. It walks m's chunks in
// order over one session set, keeps at most window downloads in flight
// on at most window warm decode pipelines, and hands each result to
// deliver — from the downloading goroutine, so a deliver that blocks
// holds its window slot and paces the fetch. A decoded chunk that fails
// its manifest Sum is delivered as that chunk's error,
// chunk.ErrBadManifest, without data. slotFor names the buffer chunk i
// decodes into, owned by that download until deliver; nil allocates
// one per chunk, which deliver then owns. It stops launching
// when ctx ends or a chunk cannot be resolved, and returns — the
// surplus bytes its sessions read (FetchStats.SurplusBytes) — once every
// launched download has been delivered. m must be valid.
func (c *Client) fetchManifest(ctx context.Context, m *chunk.Manifest, secret []byte,
	peersFor func(ctx context.Context, chunk int) ([]string, error), window int,
	slotFor func(i int) []byte, deliver func(i int, data []byte, stats FetchStats, err error)) (surplusBytes uint64) {
	set := c.newSessionSet(ctx)
	defer func() { surplusBytes = set.close() }()
	pl := c.newPipelines(window)
	defer pl.close()
	var wg sync.WaitGroup
	defer wg.Wait()
	slots := make(chan struct{}, window)
	for i, info := range m.Chunks {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return
		}
		req := FetchRequest{FileID: info.FileID, Secret: secret, Digests: info.Digests}
		var err error
		if req.Params, err = info.Params(m.Plan); err == nil {
			req.Peers, err = peersFor(ctx, i)
		}
		if err != nil {
			deliver(i, nil, FetchStats{}, err)
			return
		}
		links := set.open(req.Peers)
		var out []byte
		if slotFor != nil {
			out = slotFor(i)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			data, stats, err := c.fetchChunk(ctx, links, req, pl, out)
			if err == nil {
				if err = info.CheckSum(m.Plan, data); err != nil {
					data = nil
				}
			}
			deliver(i, data, stats, err)
		}(i)
	}
	return
}
