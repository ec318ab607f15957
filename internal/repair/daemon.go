package repair

// The proactive repair daemon. Each round it sweeps the owner's
// contract holdings (internal/contract.Set) and acts on the three
// churn signals the subsystem produces: keyed audit verdicts
// (internal/audit — a holder that cannot prove retention has lost the
// data), liveness (a holder that cannot be reached at all has left the
// swarm; discovery supplies replacement candidates), and contract
// expiry (an obligation nobody renewed is not a replica). From the
// surviving holdings it computes a rank-margin watermark per chunk —
// surviving innovative coefficients over k — and when a chunk's full
// replicas fall below the target R it negotiates contracts with fresh
// peers and re-disseminates newly minted batches at never-used ranks,
// BEFORE decodability is threatened: the watermark triggers at margin
// < R while the file is still decodable at margin ≥ 1.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/chunk"
	"asymshare/internal/contract"
	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// Defaults for Config fields left zero.
const (
	DefaultInterval   = 30 * time.Second
	DefaultTTL        = 10 * time.Minute
	DefaultSample     = 4
	DefaultCandidates = 4 // extra replacement candidates requested per needy chunk
)

// Client is the slice of the owner's network client the daemon needs:
// batch upload, keyed audit probes, contract negotiation and ledger
// feedback. *client.Client implements it.
type Client interface {
	Disseminate(ctx context.Context, addr string, msgs []*rlnc.Message) error
	audit.Prober
	ProposeContract(ctx context.Context, addr string, p wire.ContractPropose) (wire.ContractGrant, string, error)
	RenewContract(ctx context.Context, addr string, r wire.ContractRenew) (wire.ContractGrant, error)
	ReleaseContract(ctx context.Context, addr string, r wire.ContractRelease) (wire.ContractGrant, error)
	SendFeedback(ctx context.Context, ownPeerAddr string, received map[string]uint64) error
	SendAuditVerdicts(ctx context.Context, ownPeerAddr string, debits map[string]uint64) error
}

// PeerSource returns up to n replacement-candidate addresses — in
// production a discovery lookup (DHT contacts, gossip fanout), in
// tests a fixed pool. It may return fewer, including none.
type PeerSource func(ctx context.Context, n int) []string

// Config configures a Daemon.
type Config struct {
	// Manifest is the owner's share manifest. Required. The daemon
	// mutates chunk digest maps when it mints fresh batches.
	Manifest *chunk.Manifest

	// Secret is the coding secret (batch derivation + audit keys).
	// Required.
	Secret []byte

	// Data is the original file content, the re-encode source.
	// Required, and must match the manifest's TotalSize.
	Data []byte

	// Contracts is the owner's holdings set. Required. Journal it
	// (contract.OpenSet with a path) to survive kill -9 mid-repair.
	Contracts *contract.Set

	// Client performs the network operations. Required.
	Client Client

	// Peers supplies replacement candidates. Required for repair to
	// place anything; nil confines the daemon to watermark tracking.
	Peers PeerSource

	// Target is the per-generation replica target R: repair triggers
	// when a chunk's live full replicas drop below it. Zero means 1.
	Target int

	// TTL is the contract term for new and renewed contracts; zero
	// means DefaultTTL.
	TTL time.Duration

	// RenewAhead renews contracts expiring within this window; zero
	// means TTL/2.
	RenewAhead time.Duration

	// Interval is the round period for Start; zero means
	// DefaultInterval.
	Interval time.Duration

	// Sample is the per-holding audit sample size; zero means
	// DefaultSample.
	Sample int

	// ProbeTimeout bounds one audit probe; zero means the audit
	// default.
	ProbeTimeout time.Duration

	// OwnPeerAddr, when set, receives ledger feedback each round:
	// credits for holders that proved retention (honored obligations)
	// and debits for holders that failed, so contract behaviour feeds
	// the Eq. (2) allocator.
	OwnPeerAddr string

	// Persist, when set, is called after fresh digests were recorded
	// into the manifest and before the batches are uploaded — the
	// handle-persistence hook (core.SaveHandleFile) that keeps
	// replacement replicas fetchable across an owner crash.
	Persist func() error

	// Seed makes contract-id generation and audit sampling
	// deterministic; zero seeds from time.
	Seed int64

	// Clock overrides time.Now (tests).
	Clock func() time.Time

	// Logger receives round events; nil discards them.
	Logger *slog.Logger

	// Metrics, when set, receives the repair_* instrument families.
	Metrics *metrics.Registry
}

// Report tallies one repair round.
type Report struct {
	Probed       int // holdings probed
	Passed       int // proved retention
	Failed       int // answered but failed the keyed audit
	Dead         int // unreachable (liveness failure)
	Expired      int // dropped because the contract lapsed
	Renewed      int // contracts extended
	RenewFailed  int // renewals refused or unreachable
	Replacements int // fresh batches placed on new peers
	Messages     int // messages uploaded
	Bytes        int64
	Watermarks   []float64 // per-chunk margin, units of k
	MinWatermark float64
	Errors       int // non-fatal errors absorbed this round
}

// Daemon runs proactive repair rounds.
type Daemon struct {
	cfg    Config
	eng    *Engine
	pieces [][]byte
	log    *slog.Logger
	clock  func() time.Time
	m      daemonMetrics

	runMu sync.Mutex // serializes rounds (ticker vs explicit RunOnce)
	rng   *rand.Rand // guarded by runMu

	mu      sync.Mutex
	last    Report
	started bool
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the configuration and creates a daemon (not running).
func New(cfg Config) (*Daemon, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("repair: config requires a manifest")
	}
	if len(cfg.Secret) == 0 {
		return nil, errors.New("repair: config requires the coding secret")
	}
	if cfg.Contracts == nil {
		return nil, errors.New("repair: config requires a contract set")
	}
	if cfg.Client == nil {
		return nil, errors.New("repair: config requires a client")
	}
	if int64(len(cfg.Data)) != cfg.Manifest.TotalSize {
		return nil, fmt.Errorf("repair: data is %d bytes, manifest says %d",
			len(cfg.Data), cfg.Manifest.TotalSize)
	}
	if cfg.Target <= 0 {
		cfg.Target = 1
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.RenewAhead <= 0 {
		cfg.RenewAhead = cfg.TTL / 2
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Sample <= 0 {
		cfg.Sample = DefaultSample
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	d := &Daemon{
		cfg:    cfg,
		eng:    &Engine{Manifest: cfg.Manifest, Secret: cfg.Secret},
		pieces: chunk.Split(cfg.Data, cfg.Manifest.Plan.ChunkSize),
		log:    cfg.Logger,
		clock:  cfg.Clock,
		rng:    rand.New(rand.NewSource(seed)),
		m:      newDaemonMetrics(cfg.Metrics),
	}
	if d.log == nil {
		d.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if d.clock == nil {
		d.clock = time.Now
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	return d, nil
}

// Start launches the periodic repair loop. It runs one round per
// Interval until Close.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("repair: daemon closed")
	}
	if d.started {
		return errors.New("repair: daemon already started")
	}
	d.started = true
	d.wg.Add(1)
	go d.loop()
	return nil
}

// Close stops the loop and waits for any in-flight round to finish.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.cancel()
	d.wg.Wait()
	return nil
}

func (d *Daemon) loop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-ticker.C:
			if _, err := d.RunOnce(d.ctx); err != nil && d.ctx.Err() == nil {
				d.log.Warn("repair round failed", "err", err)
			}
		}
	}
}

// LastReport returns the most recent round's report.
func (d *Daemon) LastReport() Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Watermarks recomputes the per-chunk rank-margin watermark from the
// contract set alone — no network traffic. It is what recovery uses to
// re-assess health from a replayed (post-crash) holdings journal.
func (d *Daemon) Watermarks() []float64 {
	return watermarks(d.cfg.Manifest, d.cfg.Contracts, d.clock(), nil)
}

// watermarks computes, per chunk, surviving innovative coefficients
// over k: live (unexpired, not known-dead) holdings each contribute
// min(messages, k). A margin of 1.0 means exactly decodable from
// contracted replicas; the daemon aims for Target.
func watermarks(m *chunk.Manifest, set *contract.Set, now time.Time, dead map[uint64]bool) []float64 {
	out := make([]float64, len(m.Chunks))
	for i, info := range m.Chunks {
		surviving := 0
		for _, h := range set.ForChunk(i) {
			if h.Expired(now) || dead[h.ContractID] {
				continue
			}
			n := h.Messages
			if n > info.K {
				n = info.K
			}
			surviving += n
		}
		if info.K > 0 {
			out[i] = float64(surviving) / float64(info.K)
		}
	}
	return out
}

// RunOnce executes one repair round: expire, probe, renew, compute
// watermarks, replace, report. Non-fatal per-peer errors (a refused
// contract, an unreachable candidate) are absorbed and counted; the
// returned error is reserved for systemic failures (a bad manifest, a
// dead journal).
func (d *Daemon) RunOnce(ctx context.Context) (Report, error) {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	var rep Report
	now := d.clock()
	set := d.cfg.Contracts

	// 1. Contract expiry: a lapsed obligation is not a replica.
	for _, h := range set.Holdings() {
		if h.Expired(now) {
			if err := set.Drop(h.ContractID); err != nil {
				return rep, err
			}
			rep.Expired++
		}
	}
	d.m.expired.Add(uint64(rep.Expired))

	// 2. Keyed audit + liveness probe of every surviving holding.
	failed := make(map[uint64]bool) // contract-id -> lost (dead or failed)
	deadAddr := make(map[string]bool)
	debits := make(map[string]uint64)
	credits := make(map[string]uint64)
	holdings := set.Holdings()
	if len(holdings) > 0 {
		verdicts, probed, err := d.probe(ctx, holdings)
		if err != nil {
			return rep, err
		}
		for i, v := range verdicts {
			h := probed[i]
			rep.Probed++
			switch v.Outcome {
			case audit.Pass:
				rep.Passed++
				d.m.probePass.Inc()
				// An honored obligation earns its keep: credit the
				// holder's standing with the owner's peer.
				credits[h.Peer] += uint64(h.Bytes)
			case audit.Fail:
				rep.Failed++
				d.m.probeFail.Inc()
				failed[h.ContractID] = true
				if v.Penalty > 0 && h.Peer != "" {
					debits[h.Peer] += uint64(math.Round(v.Penalty))
				}
			default: // Timeout: unreachable — churned, partitioned, dead
				rep.Dead++
				d.m.probeDead.Inc()
				failed[h.ContractID] = true
				deadAddr[h.Addr] = true
			}
		}
	}
	// Drop lost holdings so the watermark reflects reality and the
	// replacement pass below refills them.
	for id := range failed {
		if err := set.Drop(id); err != nil {
			return rep, err
		}
	}

	// 3. Renew healthy contracts nearing expiry.
	for _, h := range set.Holdings() {
		if h.Expires.Sub(now) >= d.cfg.RenewAhead {
			continue
		}
		grant, err := d.cfg.Client.RenewContract(ctx, h.Addr, wire.ContractRenew{
			ContractID: h.ContractID,
			TTLSeconds: ttlSeconds(d.cfg.TTL),
		})
		if err != nil {
			// A holder that refuses (or cannot answer) a renewal is no
			// longer a replica; drop it and let replacement refill.
			rep.RenewFailed++
			rep.Errors++
			d.m.errors.Inc()
			deadAddr[h.Addr] = true
			if err := set.Drop(h.ContractID); err != nil {
				return rep, err
			}
			continue
		}
		if err := set.Renew(h.ContractID, time.Unix(grant.ExpiresUnix, 0)); err != nil {
			return rep, err
		}
		rep.Renewed++
		d.m.renewals.Inc()
	}

	// 4. Rank-margin watermark per chunk, then replacement for every
	// chunk whose live replica count is below target.
	if err := d.replace(ctx, &rep, now, deadAddr); err != nil {
		return rep, err
	}

	// 5. Feedback: honored obligations credit, failed ones debit.
	if d.cfg.OwnPeerAddr != "" {
		if len(credits) > 0 {
			if err := d.cfg.Client.SendFeedback(ctx, d.cfg.OwnPeerAddr, credits); err != nil {
				rep.Errors++
				d.m.errors.Inc()
				d.log.Warn("contract feedback failed", "err", err)
			}
		}
		if len(debits) > 0 {
			if err := d.cfg.Client.SendAuditVerdicts(ctx, d.cfg.OwnPeerAddr, debits); err != nil {
				rep.Errors++
				d.m.errors.Inc()
				d.log.Warn("contract debit feedback failed", "err", err)
			}
		}
	}

	rep.Watermarks = watermarks(d.cfg.Manifest, set, now, nil)
	rep.MinWatermark = math.Inf(1)
	for i, w := range rep.Watermarks {
		d.m.watermarkGauge(i).Set(w)
		if w < rep.MinWatermark {
			rep.MinWatermark = w
		}
	}
	if len(rep.Watermarks) == 0 {
		rep.MinWatermark = 0
	}
	d.m.minMargin.Set(rep.MinWatermark)
	d.m.rounds.Inc()
	d.m.messages.Add(uint64(rep.Messages))
	d.m.bytes.Add(uint64(rep.Bytes))

	d.mu.Lock()
	d.last = rep
	d.mu.Unlock()
	d.log.Debug("repair round",
		"probed", rep.Probed, "passed", rep.Passed, "failed", rep.Failed, "dead", rep.Dead,
		"renewed", rep.Renewed, "replacements", rep.Replacements,
		"min_watermark", rep.MinWatermark)
	return rep, nil
}

// probe runs one keyed audit per holding and returns verdicts aligned
// with the probed holdings.
func (d *Daemon) probe(ctx context.Context, holdings []contract.Holding) ([]audit.Verdict, []contract.Holding, error) {
	targets := make([]audit.Target, 0, len(holdings))
	probed := make([]contract.Holding, 0, len(holdings))
	for _, h := range holdings {
		t, err := audit.TargetFor(d.cfg.Manifest, h.Chunk, h.Rank, h.Addr)
		if err != nil {
			return nil, nil, err
		}
		if len(t.Digests) == 0 {
			continue
		}
		t.Peer = h.Peer
		targets = append(targets, t)
		probed = append(probed, h)
	}
	verdicts, err := audit.Round(ctx, d.cfg.Client, d.cfg.Secret, targets, audit.Options{
		SampleSize: d.cfg.Sample,
		Timeout:    d.cfg.ProbeTimeout,
		MaxRetries: -1, // the daemon re-probes every round; fail fast
		Seed:       d.rng.Int63(),
		Logger:     d.log,
	})
	return verdicts, probed, err
}

// replace negotiates contracts with fresh peers and uploads newly
// minted batches for every chunk below the replica target.
func (d *Daemon) replace(ctx context.Context, rep *Report, now time.Time, deadAddr map[string]bool) error {
	if d.cfg.Peers == nil {
		return nil
	}
	set := d.cfg.Contracts
	for i, info := range d.cfg.Manifest.Chunks {
		live := 0
		holders := make(map[string]bool)
		for _, h := range set.ForChunk(i) {
			if h.Expired(now) {
				continue
			}
			live++
			holders[h.Addr] = true
		}
		need := d.cfg.Target - live
		if need <= 0 {
			continue
		}
		candidates := d.cfg.Peers(ctx, need+DefaultCandidates)
		for _, addr := range candidates {
			if need <= 0 {
				break
			}
			if holders[addr] || deadAddr[addr] {
				continue
			}
			placed, err := d.placeReplica(ctx, i, info, addr, now, rep)
			if err != nil {
				return err
			}
			if placed {
				holders[addr] = true
				need--
			} else {
				deadAddr[addr] = true
			}
		}
		if need > 0 {
			d.log.Warn("replica target unmet", "chunk", i, "missing", need)
		}
	}
	return nil
}

// placeReplica negotiates one contract with addr for chunk i and
// uploads a fresh batch under it. Returns false (with no error) when
// the candidate refused or was unreachable — the caller tries the
// next one.
func (d *Daemon) placeReplica(ctx context.Context, i int, info chunk.ChunkInfo, addr string,
	now time.Time, rep *Report) (bool, error) {
	params, err := info.Params(d.cfg.Manifest.Plan)
	if err != nil {
		return false, err
	}
	bytes := int64(params.K) * int64(params.MessageBytes())
	id := d.newContractID()
	grant, fp, err := d.cfg.Client.ProposeContract(ctx, addr, wire.ContractPropose{
		ContractID: id,
		FileID:     info.FileID,
		Messages:   uint32(params.K),
		Bytes:      uint64(bytes),
		TTLSeconds: ttlSeconds(d.cfg.TTL),
	})
	if err != nil {
		// CodeOverCapacity, CodeNotPermitted, or an unreachable
		// candidate: all mean "place it elsewhere".
		rep.Errors++
		d.m.errors.Inc()
		d.log.Debug("contract refused", "addr", addr, "chunk", i, "err", err)
		return false, nil
	}

	// Mint past every rank ever used for this chunk, so the new batch
	// is innovative relative to both live and dead replicas.
	rank := rlnc.MaxBatchRank(info.Digests)
	if r := d.cfg.Contracts.MaxRank(i); r > rank {
		rank = r
	}
	rank++
	batch, err := d.eng.Mint(Task{Addr: addr, Chunk: i, Rank: rank, Fresh: true}, d.pieces[i])
	if err != nil {
		return false, err
	}
	// Crash-safe order: digests are in the manifest — persist the
	// handle BEFORE uploading, or a crash would leave the replica
	// stored but unfetchable (its digests unknown to authentication).
	if d.cfg.Persist != nil {
		if err := d.cfg.Persist(); err != nil {
			return false, fmt.Errorf("repair: persist handle: %w", err)
		}
	}
	if err := d.cfg.Client.Disseminate(ctx, addr, batch); err != nil {
		rep.Errors++
		d.m.errors.Inc()
		d.log.Debug("replacement upload failed", "addr", addr, "chunk", i, "err", err)
		return false, nil
	}
	expires := time.Unix(grant.ExpiresUnix, 0)
	if grant.ExpiresUnix == 0 {
		expires = now.Add(d.cfg.TTL)
	}
	if err := d.cfg.Contracts.Add(contract.Holding{
		ContractID: id,
		Addr:       addr,
		Peer:       fp,
		Chunk:      i,
		Rank:       rank,
		Messages:   len(batch),
		Bytes:      bytes,
		Expires:    expires,
	}); err != nil {
		return false, err
	}
	rep.Replacements++
	d.m.replaced.Inc()
	rep.Messages += len(batch)
	for _, m := range batch {
		rep.Bytes += int64(len(m.Payload) + rlnc.MessageHeaderBytes)
	}
	return true, nil
}

// newContractID draws a fresh non-zero contract id.
func (d *Daemon) newContractID() uint64 {
	for {
		if id := d.rng.Uint64(); id != 0 {
			return id
		}
	}
}

// ttlSeconds converts a duration to whole wire seconds, minimum 1.
func ttlSeconds(d time.Duration) uint32 {
	s := int64(d / time.Second)
	if s < 1 {
		s = 1
	}
	if s > math.MaxUint32 {
		s = math.MaxUint32
	}
	return uint32(s)
}
