// Package client implements the user side of Fig. 4: disseminating
// encoded message batches to storage peers (initialization, Sec. III-A)
// and later downloading from many peers in parallel to fill the remote
// download pipe beyond any single peer's upload capacity (Sec. III-B).
// The downloader feeds every arriving message into one shared
// rlnc.Sink — by default the parallel rlnc.Pipeline, so per-connection
// goroutines verify and derive coefficients concurrently instead of
// serializing on a decoder mutex — sends STOP to all peers as soon as
// rank k is reached, and reports per-peer receipts for the user's
// periodic feedback to its own peer.
package client

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
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

	// PeerFetchTimeout bounds one peer's whole fetch stream, including
	// retries. Zero means no per-peer bound beyond the fetch context.
	PeerFetchTimeout time.Duration

	// PeerRetries is how many times a fetch stream that aborts
	// mid-transfer (abrupt close, reset, timeout — anything but an
	// orderly STOP or a protocol error) is redialed. Zero means
	// DefaultPeerRetries; negative disables retries.
	PeerRetries int

	// RetryBackoff is the delay before the first retry, doubling per
	// attempt. Zero means DefaultRetryBackoff.
	RetryBackoff time.Duration

	// LegacyWire selects the pre-pooling receive path: allocate each
	// frame with wire.ReadFrame, unmarshal into an rlnc.Message, and
	// Add it to the sink. The default (false) path reads frames into
	// pooled buffers and feeds the serialized bytes straight to the
	// decoder with AddBytes — zero allocations per frame in steady
	// state. Differential tests run both and require identical output.
	LegacyWire bool

	// Hedge enables the resilient chunk scheduler in FetchFile: each
	// chunk starts on the single healthiest session and a stream that
	// stalls for a hedge delay is re-issued on the next-healthiest
	// peer, with per-peer circuit breakers quarantining peers that
	// repeatedly fail. Off by default — the classic path streams every
	// chunk from all sessions at once, which maximizes instantaneous
	// goodput at the price of redundant upload bandwidth and no
	// isolation from a stalled peer.
	Hedge bool

	// HedgeDelay pins the no-progress interval before a hedge stream
	// is launched. Zero selects the adaptive estimate: p95 of recent
	// stream latencies with headroom (DefaultHedgeDelay until enough
	// samples exist).
	HedgeDelay time.Duration

	// BreakerThreshold is how many consecutive failures quarantine a
	// peer's circuit breaker. Zero means DefaultBreakerThreshold.
	BreakerThreshold int

	// BreakerCooldown is the initial quarantine after a breaker opens,
	// doubling on each failed half-open probe up to a cap. Zero means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration

	// Priority is the wire priority carried on every muxed GET that
	// FetchFile's chunk streams issue (hedged and mux paths alike):
	// higher values win admission ties at an overloaded peer. Zero is
	// normal — and the only value pre-extension peers understand; a
	// nonzero priority selects the extended GET encoding, which
	// requires upgraded peers (see wire.Get). Per-request priority for
	// the legacy path is FetchRequest.Priority.
	Priority uint8
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

// dial connects and completes the mutual handshake. DialTimeout bounds
// the dial AND the handshake: a listener that accepts but never speaks
// (SYN-accepted, application dead) would otherwise hang the zero-value
// dialer forever.
func (c *Client) dial(ctx context.Context, addr string, role wire.Role) (net.Conn, ed25519.PublicKey, error) {
	if c.opt.DialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.DialTimeout)
		defer cancel()
	}
	conn, err := c.opt.Transport.DialContext(ctx, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	peerKey, err := wire.InitiatorHandshake(conn, c.id, role, c.trusted)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("client: handshake with %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, peerKey, nil
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

// Patch sends delta messages to a peer, which applies each one to the
// matching stored message — the data-modification path of Sec. VI-A.
// Only the file's owner (the identity that first uploaded it) will be
// accepted.
func (c *Client) Patch(ctx context.Context, addr string, deltas []*rlnc.Message) error {
	u, err := c.OpenUpload(ctx, addr)
	if err != nil {
		return err
	}
	if err := u.Patch(deltas); err != nil {
		u.Close()
		return err
	}
	return u.Close()
}

// ListFiles asks a peer which generations it stores (identifiers and
// message counts only — no payloads), letting an owner audit where its
// data is replicated.
func (c *Client) ListFiles(ctx context.Context, addr string) ([]wire.FileEntry, error) {
	conn, _, err := c.dial(ctx, addr, wire.RoleUser)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.TypeList, nil); err != nil {
		return nil, err
	}
	frame, err := wire.Expect(conn, wire.TypeFileList)
	if err != nil {
		return nil, fmt.Errorf("client: list %s: %w", addr, err)
	}
	var list wire.FileList
	if err := list.Unmarshal(frame.Payload); err != nil {
		return nil, err
	}
	_ = wire.WriteFrame(conn, wire.TypeBye, nil)
	return list.Files, nil
}

// SendFeedback delivers per-peer receipt reports to the user's own
// peer (Sec. III-B's periodic informational update).
func (c *Client) SendFeedback(ctx context.Context, ownPeerAddr string, received map[string]uint64) error {
	conn, _, err := c.dial(ctx, ownPeerAddr, wire.RoleUser)
	if err != nil {
		return err
	}
	defer conn.Close()
	fb := wire.Feedback{Entries: make([]wire.FeedbackEntry, 0, len(received))}
	keys := make([]string, 0, len(received))
	for k := range received {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fb.Entries = append(fb.Entries, wire.FeedbackEntry{PeerFingerprint: k, Bytes: received[k]})
	}
	blob, err := fb.Marshal()
	if err != nil {
		return err
	}
	if err := wire.WriteFrame(conn, wire.TypeFeedback, blob); err != nil {
		return err
	}
	// Wait for the acknowledgement so the credits are durable before we
	// disconnect.
	if _, err := wire.Expect(conn, wire.TypePutOK); err != nil {
		return fmt.Errorf("client: feedback to %s: %w", ownPeerAddr, err)
	}
	return wire.WriteFrame(conn, wire.TypeBye, nil)
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

// FetchRequest names every input of one generation download. It
// replaces the positional FetchGeneration parameter list and adds the
// decode-parallelism knob.
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

	// DecodeWorkers selects the decode engine. 0 uses the parallel
	// rlnc.Pipeline sized to GOMAXPROCS; > 0 a Pipeline with exactly
	// that many workers; < 0 the sequential decoder (one goroutine,
	// messages serialized through a mutex) — mainly for comparison
	// runs and differential tests.
	DecodeWorkers int

	// Priority is propagated with each GET on the wire: higher values
	// win admission ties at an overloaded peer. Zero is normal. The
	// fetch context's deadline is propagated alongside it, letting the
	// peer drop work whose deadline has already passed.
	Priority uint8
}

// decodeSink is what the fetch path needs from a decode engine: the
// concurrent byte-ingesting Sink interface plus final decode. Both
// rlnc.Pipeline and rlnc.SyncSink satisfy it.
type decodeSink interface {
	rlnc.ByteSink
	Decode() ([]byte, error)
}

// newSink builds the decode engine the request asked for. The returned
// cleanup releases pipeline workers (a no-op for the sequential sink).
func (req *FetchRequest) newSink() (decodeSink, func() rlnc.PipelineTelemetry, error) {
	if req.DecodeWorkers < 0 {
		dec, err := rlnc.NewDecoder(req.Params, req.FileID, req.Secret, req.Digests)
		if err != nil {
			return nil, nil, err
		}
		return rlnc.NewSyncSink(dec), nil, nil
	}
	p, err := rlnc.NewPipeline(req.Params, req.FileID, req.Secret, req.Digests,
		rlnc.PipelineConfig{Workers: req.DecodeWorkers})
	if err != nil {
		return nil, nil, err
	}
	return p, p.Telemetry, nil
}

// FetchGeneration downloads one generation (file-id) from the given
// peer addresses in parallel and decodes it. It is shorthand for Fetch
// with a zero DecodeWorkers (the parallel pipeline).
func (c *Client) FetchGeneration(ctx context.Context, addrs []string, params rlnc.Params,
	fileID uint64, secret []byte, digests map[uint64]rlnc.Digest) ([]byte, FetchStats, error) {
	return c.Fetch(ctx, FetchRequest{
		Peers:   addrs,
		Params:  params,
		FileID:  fileID,
		Secret:  secret,
		Digests: digests,
	})
}

// Fetch downloads one generation from the request's peers in parallel
// and decodes it. Each peer connection feeds received messages into a
// shared rlnc.Sink: with the default pipeline engine, digest checks and
// coefficient derivation run on the connection goroutines themselves
// and only a short innovation check is serialized, so one slow decode
// step never stalls the sockets.
func (c *Client) Fetch(ctx context.Context, req FetchRequest) ([]byte, FetchStats, error) {
	stats := FetchStats{BytesFrom: make(map[string]uint64, len(req.Peers))}
	if len(req.Peers) == 0 {
		c.m.recordFetch(stats, 0, ErrNoPeers)
		return nil, stats, ErrNoPeers
	}
	sink, telemetry, err := req.newSink()
	if err != nil {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	if closer, ok := sink.(interface{ Close() }); ok {
		defer closer.Close()
	}
	stopSampling := c.m.sampleDecode(telemetry)

	start := time.Now()
	fetchCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu   sync.Mutex // guards stats.BytesFrom
		done = make(chan struct{})
		once sync.Once
	)
	finish := func() { once.Do(func() { close(done) }) }

	var wg sync.WaitGroup
	errs := make([]error, len(req.Peers))
	for i, addr := range req.Peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = c.fetchPeerWithRetry(fetchCtx, addr, req.FileID, req.Priority, sink, &mu, &stats, finish)
		}(i, addr)
	}
	// Wait for either completion or all workers returning.
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	select {
	case <-done:
		cancel()
		<-workersDone
	case <-workersDone:
	case <-ctx.Done():
		cancel()
		<-workersDone
	}
	stats.Elapsed = time.Since(start)
	stopSampling()

	st := sink.Stats()
	stats.Messages = st.Received
	stats.Innovative = st.Accepted
	stats.Rejected = st.Rejected

	if !sink.Done() {
		err := ctx.Err()
		if err == nil {
			err = fmt.Errorf("%w: rank %d of %d (%s)",
				ErrIncomplete, sink.Rank(), req.Params.K, joinErrs(errs))
		}
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	data, err := sink.Decode()
	if err != nil {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	c.m.recordFetch(stats, len(data), nil)
	if telemetry != nil {
		c.m.recordDecodeTelemetry(telemetry())
	}
	return data, stats, nil
}

// fetchPeerWithRetry drives fetchFromPeer against one peer, redialing
// when the attempt dies mid-transfer. Protocol-level rejections
// (*wire.RemoteError, e.g. unknown file) are terminal — the peer
// answered, and asking again will not change the answer — but
// transport failures (refused dials, resets, aborts without STOP) are
// retried up to PeerRetries times with doubling backoff. BUSY sheds
// are their own class: the peer is alive and said when to come back,
// so the client re-requests after honoring RETRY_AFTER as a floor,
// without burning the transport-retry budget — only the context (and
// PeerFetchTimeout) bounds how long it keeps trying. The shared sink
// keeps whatever messages earlier attempts delivered, so a retry
// resumes rather than restarts the peer's contribution.
func (c *Client) fetchPeerWithRetry(ctx context.Context, addr string, fileID uint64, priority uint8,
	sink rlnc.ByteSink, mu *sync.Mutex, stats *FetchStats, finish func()) error {
	if c.opt.PeerFetchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.PeerFetchTimeout)
		defer cancel()
	}
	backoff := c.opt.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := c.fetchFromPeer(ctx, addr, fileID, priority, sink, mu, stats, finish)
		if err == nil {
			c.health.recordSuccess(addr, 0)
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		var busy *wire.Busy
		if errors.As(err, &busy) {
			if busy.Code == wire.CodeExpired {
				return err // our deadline passed; asking again cannot help
			}
			c.health.recordShed(addr)
			c.m.shedsObserved.Inc()
			wait := c.opt.RetryBackoff
			if ra := time.Duration(busy.RetryAfterMillis) * time.Millisecond; ra > wait {
				wait = ra
			}
			select {
			case <-ctx.Done():
				return err
			case <-time.After(wait):
			}
			attempt-- // sheds are not transport failures
			continue
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			return err
		}
		c.health.recordFailure(addr)
		if attempt >= c.opt.PeerRetries {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
		backoff *= 2
	}
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

// fetchFromPeer streams messages from one peer into the shared sink
// until the decode completes, the peer is exhausted, or the context is
// cancelled. The sink handles its own synchronization and, for the
// pipeline engine, applies back-pressure by blocking Add when all
// verifier slots are busy.
//
// The default receive loop is the pooled zero-copy path: each frame
// lands in a reference-counted buffer from wire.DefaultPool and its
// bytes go straight to sink.AddBytes — no per-frame allocation and no
// intermediate Message. Options.LegacyWire selects the historical
// allocate-and-unmarshal loop, kept for differential testing.
func (c *Client) fetchFromPeer(ctx context.Context, addr string, fileID uint64, priority uint8,
	sink rlnc.ByteSink, mu *sync.Mutex, stats *FetchStats, finish func()) error {
	conn, peerKey, err := c.dial(ctx, addr, wire.RoleUser)
	if err != nil {
		return err
	}
	defer conn.Close()
	fingerprint := auth.Fingerprint(peerKey)

	// Close the connection on cancellation so reads unblock.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	get := wire.Get{FileID: fileID, DeadlineMillis: deadlineMillis(ctx), Priority: priority}
	if err := wire.WriteFrame(conn, wire.TypeGet, get.Marshal()); err != nil {
		return err
	}
	if c.opt.LegacyWire {
		return c.recvLoopLegacy(ctx, conn, addr, fingerprint, fileID, sink, mu, stats, finish)
	}
	return c.recvLoop(ctx, conn, addr, fingerprint, fileID, sink, mu, stats, finish)
}

// recvLoop is the pooled receive loop shared by the legacy-GET fetch
// path (one stream per connection). Error classification matches
// recvLoopLegacy exactly; the differential suite pins this.
func (c *Client) recvLoop(ctx context.Context, conn net.Conn, addr, fingerprint string,
	fileID uint64, sink rlnc.ByteSink, mu *sync.Mutex, stats *FetchStats, finish func()) error {
	fr := wire.NewFrameReader(conn)
	for {
		t, b, err := fr.Next()
		if err != nil {
			if ctx.Err() != nil {
				return nil // cancelled: decode completed elsewhere, or deadline
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				// The stream died without an orderly STOP: the peer
				// crashed or the path broke mid-transfer. Surface it as
				// retriable instead of mistaking it for exhaustion.
				return fmt.Errorf("%w (%s): %v", errPeerAborted, addr, err)
			}
			return err
		}
		switch t {
		case wire.TypeData:
			_, addErr := sink.AddBytes(b.Bytes())
			completed := sink.Done()
			n := len(b.Bytes())
			b.Release()
			mu.Lock()
			stats.BytesFrom[fingerprint] += uint64(n)
			mu.Unlock()
			c.m.received.Add(uint64(n))
			c.m.recvRate.Mark(uint64(n))
			if addErr != nil && !errors.Is(addErr, rlnc.ErrBadDigest) {
				return addErr
			}
			if completed {
				// Politely tell the peer to stop before disconnecting.
				stop := wire.Stop{FileID: fileID}
				_ = wire.WriteFrame(conn, wire.TypeStop, stop.Marshal())
				_ = wire.WriteFrame(conn, wire.TypeBye, nil)
				finish()
				return nil
			}
		case wire.TypeStop:
			// Peer exhausted its stored messages.
			b.Release()
			return nil
		case wire.TypeBusy:
			// Shed under overload (admission refusal, preemption, or
			// expired deadline). The typed error carries the peer's
			// RETRY_AFTER hint for the retry loop to honor.
			var bz wire.Busy
			uerr := bz.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				return uerr
			}
			return &bz
		case wire.TypeError:
			var e wire.ErrorMsg
			uerr := e.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				return uerr
			}
			return &wire.RemoteError{Code: e.Code, Reason: e.Reason}
		default:
			b.Release()
			return fmt.Errorf("%w: %s during fetch", wire.ErrUnexpectedFrame, t)
		}
	}
}

// recvLoopLegacy is the historical per-frame-allocation receive loop,
// retained behind Options.LegacyWire as the differential baseline.
func (c *Client) recvLoopLegacy(ctx context.Context, conn net.Conn, addr, fingerprint string,
	fileID uint64, sink rlnc.ByteSink, mu *sync.Mutex, stats *FetchStats, finish func()) error {
	for {
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return nil // cancelled: decode completed elsewhere, or deadline
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return fmt.Errorf("%w (%s): %v", errPeerAborted, addr, err)
			}
			return err
		}
		switch frame.Type {
		case wire.TypeData:
			var msg rlnc.Message
			if err := msg.UnmarshalBinary(frame.Payload); err != nil {
				return err
			}
			_, addErr := sink.Add(&msg)
			completed := sink.Done()
			mu.Lock()
			stats.BytesFrom[fingerprint] += uint64(len(frame.Payload))
			mu.Unlock()
			c.m.received.Add(uint64(len(frame.Payload)))
			c.m.recvRate.Mark(uint64(len(frame.Payload)))
			if addErr != nil && !errors.Is(addErr, rlnc.ErrBadDigest) {
				return addErr
			}
			if completed {
				stop := wire.Stop{FileID: fileID}
				_ = wire.WriteFrame(conn, wire.TypeStop, stop.Marshal())
				_ = wire.WriteFrame(conn, wire.TypeBye, nil)
				finish()
				return nil
			}
		case wire.TypeStop:
			return nil
		case wire.TypeBusy:
			var bz wire.Busy
			if err := bz.Unmarshal(frame.Payload); err != nil {
				return err
			}
			return &bz
		case wire.TypeError:
			var e wire.ErrorMsg
			if err := e.Unmarshal(frame.Payload); err != nil {
				return err
			}
			return &wire.RemoteError{Code: e.Code, Reason: e.Reason}
		default:
			return fmt.Errorf("%w: %s during fetch", wire.ErrUnexpectedFrame, frame.Type)
		}
	}
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
// flight concurrently over its muxed sessions.
const fetchFileStreams = 4

// FetchFile downloads and reassembles a whole manifest, enabling the
// chunk-streaming mode of Sec. III-D. One multiplexed session is opened
// per peer and every chunk becomes a concurrent generation stream on
// those sessions — up to fetchFileStreams chunks in flight, each chunk
// still downloading from all peers in parallel — so a manifest of many
// chunks pays one dial+handshake per peer instead of one per chunk per
// peer. A chunk whose muxed download fails falls back to the legacy
// one-connection-per-peer Fetch before the whole call is failed.
func (c *Client) FetchFile(ctx context.Context, addrs []string, m *chunk.Manifest,
	secret []byte) ([]byte, FetchStats, error) {
	total := FetchStats{BytesFrom: make(map[string]uint64)}
	if err := m.Validate(); err != nil {
		return nil, total, err
	}
	start := time.Now()

	// One muxed session per reachable peer, shared by all chunk streams.
	sessions := make([]*PeerSession, 0, len(addrs))
	for _, addr := range addrs {
		s, err := c.NewPeerSession(ctx, addr)
		if err != nil {
			continue // the per-chunk fallback still dials directly
		}
		sessions = append(sessions, s)
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()

	fileCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	pieces := make([][]byte, len(m.Chunks))
	errs := make([]error, len(m.Chunks))
	var (
		mu  sync.Mutex // guards total
		wg  sync.WaitGroup
		sem = make(chan struct{}, fetchFileStreams)
	)
	for i, info := range m.Chunks {
		params, err := info.Params(m.Plan)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, total, err
		}
		wg.Add(1)
		go func(i int, fileID uint64, params rlnc.Params, digests map[uint64]rlnc.Digest) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if fileCtx.Err() != nil {
				errs[i] = fileCtx.Err()
				return
			}
			var (
				data  []byte
				stats FetchStats
				err   error
			)
			if c.opt.Hedge && len(sessions) > 0 {
				// Resilient path: one stream at a time down the health
				// ladder, hedging on stall. If it cannot complete the
				// chunk (every session quarantined or exhausted), the
				// breaker-blind mux path below still tries everything.
				data, stats, err = c.fetchChunkHedged(fileCtx, sessions, i, params, fileID, secret, digests)
				if err != nil && fileCtx.Err() == nil {
					data, stats, err = c.fetchChunkMux(fileCtx, sessions, params, fileID, secret, digests)
				}
			} else {
				data, stats, err = c.fetchChunkMux(fileCtx, sessions, params, fileID, secret, digests)
			}
			if err != nil && fileCtx.Err() == nil {
				// Muxed path failed (no sessions, session died, stream
				// refused): retry the chunk over fresh legacy connections.
				data, stats, err = c.FetchGeneration(fileCtx, addrs, params, fileID, secret, digests)
			}
			if err != nil {
				errs[i] = fmt.Errorf("chunk %d: %w", i, err)
				cancel()
				return
			}
			pieces[i] = data
			mu.Lock()
			total.Messages += stats.Messages
			total.Innovative += stats.Innovative
			total.Rejected += stats.Rejected
			for k, v := range stats.BytesFrom {
				total.BytesFrom[k] += v
			}
			mu.Unlock()
		}(i, info.FileID, params, info.Digests)
	}
	wg.Wait()
	total.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
	data, err := chunk.Assemble(m, pieces)
	if err != nil {
		return nil, total, err
	}
	return data, total, nil
}

// fetchChunkMux downloads one generation over the open sessions: every
// session streams the chunk concurrently into one shared sink, exactly
// like Fetch does over dedicated connections.
func (c *Client) fetchChunkMux(ctx context.Context, sessions []*PeerSession, params rlnc.Params,
	fileID uint64, secret []byte, digests map[uint64]rlnc.Digest) ([]byte, FetchStats, error) {
	stats := FetchStats{BytesFrom: make(map[string]uint64, len(sessions))}
	if len(sessions) == 0 {
		return nil, stats, ErrNoPeers
	}
	req := FetchRequest{Params: params, FileID: fileID, Secret: secret, Digests: digests}
	sink, telemetry, err := req.newSink()
	if err != nil {
		return nil, stats, err
	}
	if closer, ok := sink.(interface{ Close() }); ok {
		defer closer.Close()
	}
	stopSampling := c.m.sampleDecode(telemetry)

	start := time.Now()
	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu sync.Mutex // guards stats.BytesFrom
		wg sync.WaitGroup
	)
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *PeerSession) {
			defer wg.Done()
			fp := s.Fingerprint()
			errs[i] = s.FetchStream(streamCtx,
				StreamRequest{FileID: fileID, Priority: c.opt.Priority}, sink, func(n int) {
					mu.Lock()
					stats.BytesFrom[fp] += uint64(n)
					mu.Unlock()
				})
			if sink.Done() {
				cancel() // wake sibling streams so they STOP promptly
			}
		}(i, s)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	stopSampling()

	st := sink.Stats()
	stats.Messages = st.Received
	stats.Innovative = st.Accepted
	stats.Rejected = st.Rejected

	if !sink.Done() {
		err := ctx.Err()
		if err == nil {
			err = fmt.Errorf("%w: rank %d of %d (%s)",
				ErrIncomplete, sink.Rank(), params.K, joinErrs(errs))
		}
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	data, err := sink.Decode()
	if err != nil {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	c.m.recordFetch(stats, len(data), nil)
	if telemetry != nil {
		c.m.recordDecodeTelemetry(telemetry())
	}
	return data, stats, nil
}
