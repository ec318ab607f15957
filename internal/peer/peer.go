// Package peer implements a storage peer daemon: the home computer of
// Fig. 4(a). A peer accepts authenticated connections, stores encoded
// messages uploaded during the initialization phase (Sec. III-A),
// serves stored messages to requesting users at rates chosen by its
// fairshare allocator (Sec. IV, Eq. 2), and accepts periodic feedback
// from its own user reporting service received from other peers — the
// only input the allocation rule needs.
package peer

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/dht"
	"asymshare/internal/estimate"
	"asymshare/internal/fairshare"
	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
	"asymshare/internal/ratelimit"
	"asymshare/internal/store"
	"asymshare/internal/transport"
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("peer: node closed")

// DefaultReallocInterval matches the paper's evaluation, where "each
// peer reallocated their upload bandwidths once per second".
const DefaultReallocInterval = time.Second

// streamBurst is the token-bucket burst granted to each download
// stream, in bytes.
const streamBurst = 64 << 10

// Config configures a Node.
type Config struct {
	// Identity is the peer's long-term key. Required.
	Identity *auth.Identity

	// Store holds the peer's encoded messages. Required.
	Store store.Store

	// Trusted restricts which counterpart keys are served. Nil accepts
	// any key that completes the challenge-response (open federation).
	Trusted *auth.TrustSet

	// Owner is the public key of the peer's own user; only the owner
	// may submit ledger feedback. Nil disables feedback.
	Owner ed25519.PublicKey

	// UploadBytesPerSec is the peer's upload capacity mu_i in
	// bytes/second. Zero or negative means unlimited (no shaping).
	// With an Estimator it is the operator override: a ceiling the
	// online estimate is clamped to, and the capacity used while the
	// estimator warms up.
	UploadBytesPerSec float64

	// Estimator, when set, measures the real upload capacity online
	// from flush timings (see internal/estimate) and the realloc loop
	// divides the estimate instead of the configured constant. New
	// publishes its fairshare_estimate_* families into Metrics.
	Estimator *estimate.History

	// Allocator divides capacity among concurrent downloaders; nil
	// means the paper's pairwise-proportional rule.
	Allocator fairshare.Allocator

	// Ledger is the peer's receipt ledger; nil creates a fresh one
	// (with the default initial credit), or recovers one from
	// LedgerPath when that is set.
	Ledger *fairshare.Ledger

	// LedgerPath, when set, makes the ledger durable: New recovers the
	// newest valid checkpoint from the dual slots at this path (see
	// fairshare.RecoverLedger) and the running node checkpoints the
	// ledger periodically and once more on Close. Without it a crash
	// zeroes every contributor's standing — the state Eq. (2) allocates
	// by and Theorem 1 assumes persists.
	LedgerPath string

	// CheckpointInterval is how often a dirty ledger is saved; zero
	// means fairshare.DefaultCheckpointInterval. Ignored without
	// LedgerPath.
	CheckpointInterval time.Duration

	// FS is the filesystem the ledger checkpoints go through; nil means
	// the real OS. Tests inject an fsx.ErrFS to crash the node's
	// durable state deterministically.
	FS fsx.FS

	// ReallocInterval is how often stream rates are recomputed; zero
	// means DefaultReallocInterval.
	ReallocInterval time.Duration

	// StreamBurst is the per-stream token-bucket burst in bytes; zero
	// means 64 KiB. It is always raised to cover at least one full
	// message frame of the stream being served.
	StreamBurst float64

	// MaxConns bounds concurrent connections; excess connections are
	// closed immediately. Zero means unlimited.
	MaxConns int

	// MaxStreams bounds concurrently served download streams (the
	// admission queue of DESIGN.md §14). At the bound, a new request
	// either preempts the active stream with the lowest (priority,
	// fairness standing) — free riders shed first, high-standing
	// requesters protected — or is refused with a typed BUSY /
	// RETRY_AFTER frame. At three quarters of the bound the node enters
	// brownout and serves every stream with halved batch sizes before
	// refusing anyone. Zero means unlimited (no admission control).
	MaxStreams int

	// DHT, when set, makes the peer host a DHT node on its own listener
	// (content location): a connection whose first
	// frame is a DHT request goes to the node instead of the handshake.
	// Start builds the node from this configuration with Advertise set
	// to the listen address, which also seeds its id, and Transport
	// defaulting to the peer's; DHT returns it. The peer announces each
	// stored file-id under it at its first PUT and every half MaxTTL.
	// Nil leaves DHT frames unanswered.
	DHT *dht.Config

	// Transport provides the listener; nil means real TCP
	// (transport.Default). Tests inject an in-memory netsim fabric
	// here to drive the node through latency, loss and partitions.
	Transport transport.Transport

	// Logger receives operational events; nil discards them.
	Logger *slog.Logger

	// Metrics, when set, receives the node's peer_* instrument
	// families, wraps the store with latency histograms and attaches
	// credit/debit counters to the ledger (see internal/peer/metrics.go
	// and DESIGN.md §7). Each node should get its own registry so that
	// per-requester gauges from co-located nodes do not collide. Nil
	// disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// Node is a running peer.
type Node struct {
	cfg       Config
	ledger    *fairshare.Ledger
	alloc     fairshare.Allocator
	est       *estimate.History
	log       *slog.Logger
	interval  time.Duration
	m         nodeMetrics
	ckpt      *fairshare.Checkpointer
	ledgerRec fairshare.LedgerRecovery

	ln     net.Listener
	dht    *dht.Node
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	streams map[*stream]struct{}
	closed  bool

	// Realloc scratch, touched only under mu: requester build-up,
	// per-requester stream counts (parallel to reqBuf), requester
	// index by ID, and the grants buffer handed to the allocator —
	// so a steady-state tick reuses every buffer.
	reqBuf    []fairshare.Requester
	cntBuf    []int
	posBuf    map[fairshare.ID]int
	grantsBuf fairshare.Grants

	// brownout is set while admission load is at or above the brownout
	// threshold; serve loops read it per batch to halve their sizes.
	brownout atomic.Bool

	statsMu  sync.Mutex
	bytesOut map[fairshare.ID]int64 // per-downloader served bytes

	ownersMu sync.Mutex              // guards owners and pending
	owners   map[uint64]fairshare.ID // file-id -> first uploader
	pending  []uint64                // file-ids reannounceLoop has yet to announce
	wake     chan struct{}           // one slot, filled when pending grows
}

// stream is one active download being served.
type stream struct {
	client   fairshare.ID
	bucket   *ratelimit.Bucket
	cancel   context.CancelFunc
	fileID   uint64
	limited  bool // false = no upload cap: skip the bucket entirely
	priority uint8
	deadline time.Time // zero = none; work past it is dropped, not served
	// notifyBusy writes a BUSY frame for this stream on its own
	// connection; the admission path calls it (outside n.mu) when the
	// stream is preempted for a higher-standing requester. Nil in
	// tests that fabricate streams directly.
	notifyBusy func(code uint16, retryAfterMillis uint32, reason string)
}

// New validates the configuration and creates a node (not yet
// listening).
func New(cfg Config) (*Node, error) {
	if cfg.Identity == nil {
		return nil, errors.New("peer: config requires an identity")
	}
	if cfg.Store == nil {
		return nil, errors.New("peer: config requires a store")
	}
	n := &Node{
		cfg:      cfg,
		ledger:   cfg.Ledger,
		alloc:    cfg.Allocator,
		est:      cfg.Estimator,
		log:      cfg.Logger,
		interval: cfg.ReallocInterval,
		streams:  make(map[*stream]struct{}),
		posBuf:   make(map[fairshare.ID]int),
		bytesOut: make(map[fairshare.ID]int64),
		owners:   make(map[uint64]fairshare.ID),
		wake:     make(chan struct{}, 1),
	}
	if cfg.LedgerPath != "" {
		led, rec, err := fairshare.RecoverLedger(cfg.FS, cfg.LedgerPath, fairshare.DefaultInitialCredit)
		if err != nil {
			return nil, fmt.Errorf("peer: recover ledger: %w", err)
		}
		n.ledgerRec = rec
		if n.ledger == nil {
			// Recovered standing replaces the fresh-ledger default; an
			// explicitly injected ledger wins, but the on-disk generation
			// still seeds the checkpointer so generations never regress.
			n.ledger = led
		}
	}
	if n.ledger == nil {
		n.ledger = fairshare.NewLedger(fairshare.DefaultInitialCredit)
	}
	if n.alloc == nil {
		n.alloc = fairshare.PairwiseProportional{}
	}
	if n.log == nil {
		n.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if n.interval <= 0 {
		n.interval = DefaultReallocInterval
	}
	n.m = newNodeMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		n.cfg.Store = store.Instrument(n.cfg.Store, cfg.Metrics)
		n.ledger.Instrument(cfg.Metrics)
		n.alloc = fairshare.InstrumentAllocator(n.alloc, cfg.Metrics)
		if n.est != nil {
			n.est.Instrument(cfg.Metrics)
		}
	}
	if cfg.LedgerPath != "" {
		n.ckpt = fairshare.NewCheckpointer(fairshare.CheckpointConfig{
			Ledger:   n.ledger,
			Path:     cfg.LedgerPath,
			Interval: cfg.CheckpointInterval,
			FS:       cfg.FS,
			Gen:      n.ledgerRec.Gen,
			Metrics:  cfg.Metrics,
		})
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	return n, nil
}

// Start listens on addr (e.g. "127.0.0.1:0") and begins serving.
func (n *Node) Start(addr string) error {
	tr := n.cfg.Transport
	if tr == nil {
		tr = transport.Default
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("peer: listen: %w", err)
	}
	var dn *dht.Node
	if n.cfg.DHT != nil {
		dcfg := *n.cfg.DHT
		dcfg.Advertise = ln.Addr().String()
		if dcfg.Transport == nil {
			dcfg.Transport = tr
		}
		if dn, err = dht.New(dcfg); err != nil {
			ln.Close()
			return fmt.Errorf("peer: %w", err)
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		if dn != nil {
			dn.Close()
		}
		return ErrClosed
	}
	n.ln = ln
	n.dht = dn
	n.mu.Unlock()

	n.wg.Add(2)
	go n.acceptLoop()
	go n.reallocLoop()
	if dn != nil {
		n.wg.Add(1)
		go n.reannounceLoop(dn)
		// A bootstrap joins nobody: what the store already holds is
		// recorded here, where every lookup through it starts.
		n.announce(n.cfg.Store.Files()...)
	}
	if n.ckpt != nil {
		// Close cancels n.ctx before wg.Wait, so Run's shutdown path
		// writes one final checkpoint before Close returns.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.ckpt.Run(n.ctx)
		}()
		n.log.Info("ledger checkpointing enabled",
			"path", n.cfg.LedgerPath, "gen", n.ledgerRec.Gen,
			"recovered", n.ledgerRec.Loaded, "corrupt_slots", n.ledgerRec.CorruptSlots)
	}
	n.log.Info("peer started", "addr", ln.Addr().String(), "fingerprint", n.cfg.Identity.Fingerprint())
	return nil
}

// Join joins the peer's DHT node to the network through bootstrap,
// then announces every file-id its store already holds: a peer
// restarted on its store resolves again as soon as it has joined, not
// half a TTL later.
func (n *Node) Join(ctx context.Context, bootstrap string) error {
	dn := n.DHT()
	if dn == nil {
		return errors.New("peer: join: no DHT node (Config.DHT unset, or not started)")
	}
	if err := dn.Join(ctx, bootstrap); err != nil {
		return err
	}
	n.announce(n.cfg.Store.Files()...)
	return nil
}

// announce queues file-ids for reannounceLoop without waiting on the
// DHT; pending loses no id.
func (n *Node) announce(ids ...uint64) {
	if len(ids) == 0 {
		return
	}
	n.ownersMu.Lock()
	n.pending = append(n.pending, ids...)
	n.ownersMu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default: // already signalled: the loop takes the whole list
	}
}

// reannounceLoop announces under the peer's own address each file-id
// Start, Join and handlePut queue, and every stored one once per half
// of its DHT node's MaxTTL: a record resolves from the first PUT for
// as long as this peer holds the file, and lapses within a TTL of it
// leaving.
func (n *Node) reannounceLoop(dn *dht.Node) {
	defer n.wg.Done()
	ttl := n.cfg.DHT.MaxTTL
	if ttl <= 0 {
		ttl = dht.DefaultTTL
	}
	ticker := time.NewTicker(ttl / 2)
	defer ticker.Stop()
	for {
		var ids []uint64
		select {
		case <-n.ctx.Done():
			return
		case <-n.wake:
			n.ownersMu.Lock()
			ids, n.pending = n.pending, nil
			n.ownersMu.Unlock()
		case <-ticker.C:
			ids = n.cfg.Store.Files()
		}
		for _, id := range ids {
			if err := dn.Announce(n.ctx, dht.KeyFromFileID(id)); err != nil {
				if n.ctx.Err() != nil {
					return
				}
				n.log.Debug("dht re-announce failed", "file", id, "err", err)
			}
		}
	}
}

// Addr returns the listen address, or nil before Start.
func (n *Node) Addr() net.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// DHT returns the DHT node the peer hosts, or nil before Start or
// without Config.DHT.
func (n *Node) DHT() *dht.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dht
}

// Ledger exposes the node's receipt ledger (shared, concurrent-safe).
func (n *Node) Ledger() *fairshare.Ledger { return n.ledger }

// LedgerRecovery reports what New found at Config.LedgerPath. The
// zero value is returned when the node has no durable ledger.
func (n *Node) LedgerRecovery() fairshare.LedgerRecovery { return n.ledgerRec }

// CheckpointGen returns the generation of the newest completed ledger
// checkpoint, or 0 when the node has no durable ledger.
func (n *Node) CheckpointGen() uint64 {
	if n.ckpt == nil {
		return 0
	}
	return n.ckpt.Gen()
}

// CheckpointNow forces an immediate ledger checkpoint (no-op without a
// durable ledger). The periodic Run loop normally handles this; it is
// exposed for operators and tests that need a hard durability point.
func (n *Node) CheckpointNow() error {
	if n.ckpt == nil {
		return nil
	}
	return n.ckpt.Checkpoint()
}

// Close stops serving and waits for all connection handlers to exit.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln, dn := n.ln, n.dht
	n.mu.Unlock()
	n.cancel()
	if ln != nil {
		ln.Close()
	}
	n.wg.Wait()
	if dn != nil {
		dn.Close()
	}
	return nil
}

// ServedBytes reports the total bytes served per downloader
// fingerprint.
func (n *Node) ServedBytes() map[fairshare.ID]int64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	out := make(map[fairshare.ID]int64, len(n.bytesOut))
	for k, v := range n.bytesOut {
		out[k] = v
	}
	return out
}

// Accept-loop backoff bounds. Transient accept failures (EMFILE,
// ECONNABORTED, momentary stack trouble) must not kill the daemon: the
// loop sleeps an exponentially growing, capped interval and tries
// again, resetting once an accept succeeds.
const (
	acceptBackoffStart = 5 * time.Millisecond
	acceptBackoffMax   = time.Second
)

// nextAcceptBackoff returns the delay after one more consecutive
// accept failure: start on the first failure, doubling up to the cap.
func nextAcceptBackoff(cur time.Duration) time.Duration {
	if cur <= 0 {
		return acceptBackoffStart
	}
	cur *= 2
	if cur > acceptBackoffMax {
		cur = acceptBackoffMax
	}
	return cur
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	var sem chan struct{}
	if n.cfg.MaxConns > 0 {
		sem = make(chan struct{}, n.cfg.MaxConns)
	}
	var backoff time.Duration
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			n.m.acceptErrors.Inc()
			backoff = nextAcceptBackoff(backoff)
			n.log.Warn("accept error", "err", err, "retry_in", backoff)
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		n.m.conns.Inc()
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				// At capacity: shed the connection rather than queueing
				// unauthenticated strangers.
				n.m.connsShed.Inc()
				n.log.Debug("connection shed", "remote", conn.RemoteAddr().String())
				conn.Close()
				continue
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			n.m.connsActive.Add(1)
			defer n.m.connsActive.Add(-1)
			n.handleConn(conn)
		}()
	}
}

// reallocLoop recomputes each active stream's rate once per interval,
// dividing capacity with the allocator over the currently-downloading
// clients — the real-time counterpart of the simulator's per-slot
// allocation.
func (n *Node) reallocLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-ticker.C:
			n.reallocate()
		}
	}
}

// shaping reports whether this node limits upload streams at all — a
// configured capacity, or an estimator that will discover one.
func (n *Node) shaping() bool {
	return n.cfg.UploadBytesPerSec > 0 || n.est != nil
}

// warmupRate is the effectively-unshaped bucket rate used while an
// estimator warms up on a node with no configured capacity: streams
// must run through their buckets (so they can be shaped once the
// estimate lands) but nothing real is known to limit them yet.
const warmupRate = 1e12

// currentCapacity resolves the capacity to divide this tick: the
// online estimate clamped to the configured override when both exist,
// the configured constant while the estimate warms up, and 0 for
// "still unknown" (estimator only, not yet converged).
func (n *Node) currentCapacity() float64 {
	configured := n.cfg.UploadBytesPerSec
	if n.est == nil {
		return configured
	}
	if e := estimate.Clamp(n.est.Estimate(), configured); e > 0 {
		return e
	}
	return configured
}

func (n *Node) reallocate() {
	if !n.shaping() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reallocateLocked()
}

func (n *Node) reallocateLocked() {
	if !n.shaping() {
		return
	}
	start := time.Now()
	// Distinct requesting clients (a client may run several streams),
	// built into reused scratch: reqBuf holds one Requester per
	// distinct client, cntBuf its stream count, posBuf its index.
	n.reqBuf = n.reqBuf[:0]
	n.cntBuf = n.cntBuf[:0]
	clear(n.posBuf)
	for s := range n.streams {
		if i, ok := n.posBuf[s.client]; ok {
			n.cntBuf[i]++
			continue
		}
		n.posBuf[s.client] = len(n.reqBuf)
		n.reqBuf = append(n.reqBuf, fairshare.Requester{ID: s.client})
		n.cntBuf = append(n.cntBuf, 1)
	}
	if len(n.reqBuf) == 0 {
		// Zero the gauges of requesters that left so a scrape does not
		// show bandwidth granted to nobody.
		for _, g := range n.m.grants {
			g.Set(0)
		}
		return
	}
	// Taken feeds contribution-index policies (BiasedContribution).
	n.statsMu.Lock()
	for i := range n.reqBuf {
		n.reqBuf[i].Taken = float64(n.bytesOut[n.reqBuf[i].ID])
	}
	n.statsMu.Unlock()
	capacity := n.currentCapacity()
	n.m.capacity.Set(capacity)
	if capacity <= 0 {
		// Estimator-only node, estimate not yet converged: run the
		// streams effectively unshaped until it is.
		for s := range n.streams {
			s.bucket.SetRate(warmupRate)
		}
		return
	}
	grants := n.alloc.Allocate(fairshare.AllocRequest{
		Capacity:   capacity,
		Requesters: n.reqBuf,
		Ledger:     n.ledger,
		Scratch:    n.grantsBuf,
	})
	n.grantsBuf = grants
	for s := range n.streams {
		i := n.posBuf[s.client]
		s.bucket.SetRate(grants[i].Rate / float64(n.cntBuf[i]))
	}
	for id, g := range n.m.grants {
		if _, requesting := n.posBuf[id]; !requesting {
			g.Set(0)
		}
	}
	for i := range grants {
		n.m.grantGauge(grants[i].ID).Set(grants[i].Rate)
	}
	n.m.reallocDur.ObserveSince(start)
}

// registerLocked adds an admitted stream and gives it a sane rate
// immediately rather than waiting out the first tick. Callers hold mu.
func (n *Node) registerLocked(s *stream) {
	n.streams[s] = struct{}{}
	n.m.streamsActive.Add(1)
	n.m.overloadAdmitted.Inc()
	n.updateBrownoutLocked()
	n.reallocateLocked()
}

func (n *Node) unregisterStream(s *stream) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// A preempted stream was already removed (and its gauge decremented)
	// by the admission path; its serve goroutine still unregisters on
	// the way out, which must then be a no-op.
	if _, ok := n.streams[s]; !ok {
		return
	}
	delete(n.streams, s)
	n.m.streamsActive.Add(-1)
	n.updateBrownoutLocked()
	n.reallocateLocked()
}

func (n *Node) recordServed(client fairshare.ID, bytes int) {
	n.statsMu.Lock()
	n.bytesOut[client] += int64(bytes)
	n.statsMu.Unlock()
	n.m.servedBytes.Add(uint64(bytes))
	n.m.servedRate.Mark(uint64(bytes))
}

// claimFile records the first uploader of a file-id as its owner and
// reports whether client is (now) the owner. Only the owner may write
// further messages or patches for that file, so one trusted user
// cannot corrupt another's stored generations.
func (n *Node) claimFile(fileID uint64, client fairshare.ID) bool {
	n.ownersMu.Lock()
	defer n.ownersMu.Unlock()
	owner, ok := n.owners[fileID]
	if !ok {
		n.owners[fileID] = client
		return true
	}
	return owner == client
}
