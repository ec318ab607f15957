package audit

// The Auditor owns the audit loop: per-target jittered scheduling,
// timeout/retry with exponential backoff, escalation after failures
// (probe more messages, audit sooner), ledger penalties, and
// replica-loss notification. It is transport-agnostic: anything that
// can deliver a challenge and return the response — the real
// client.Client, or an in-process fake in tests — plugs in as a
// Prober.

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"time"

	"asymshare/internal/fairshare"
	"asymshare/internal/metrics"
	"asymshare/internal/wire"
)

// Prober delivers one challenge to a peer and returns its response and
// the peer's ledger identity. client.Client satisfies this.
type Prober interface {
	Audit(ctx context.Context, addr string, ch wire.AuditChallenge) (*wire.AuditResponse, string, error)
}

// Defaults used when the corresponding Config field is zero.
const (
	DefaultInterval   = 30 * time.Second
	DefaultJitter     = 0.2
	DefaultTimeout    = 5 * time.Second
	DefaultBackoff    = 500 * time.Millisecond
	DefaultMaxRetries = 2
	DefaultSampleSize = 8
)

// maxEscalation caps the escalation exponent: after this many
// consecutive failures the sample and the interval stop growing and
// shrinking respectively.
const maxEscalation = 4

// Outcome classifies one completed audit.
type Outcome int

// Audit outcomes.
const (
	// Pass: every sampled message was proven.
	Pass Outcome = iota

	// Fail: the peer answered but at least one sampled message was
	// missing or forged.
	Fail

	// Timeout: the peer never produced a verifiable response within
	// the retry budget — treated exactly like a failure for penalty
	// purposes, or refusing audits would be the winning strategy.
	Timeout
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Fail:
		return "fail"
	case Timeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Verdict is the result of one audit of one target.
type Verdict struct {
	Addr    string
	Peer    string // ledger identity; may be empty on timeout before any contact
	FileID  uint64
	Outcome Outcome
	Tally   Tally
	Penalty float64 // ledger units debited

	// Attempts is how many probes were sent (1 + retries used).
	Attempts int

	// Err is the last transport error for Timeout verdicts.
	Err error
}

// Config configures an Auditor.
type Config struct {
	// Prober delivers challenges. Required.
	Prober Prober

	// Secret is the owner's per-file coding secret, the root of the
	// challenge key derivation. Required.
	Secret []byte

	// Ledger, when set, is debited for failed and timed-out audits —
	// the owner's local standing of each storage peer.
	Ledger *fairshare.Ledger

	// PenaltyPerMessage is the ledger debit per sampled message that
	// failed (missing, forged, or the whole sample on timeout). Zero
	// derives it from the target's MessageBytes — the peer forfeits
	// the credit-equivalent of the data it no longer proves.
	PenaltyPerMessage float64

	// OnVerdict, when set, observes every completed audit — the hook
	// the repair path uses to re-disseminate lost replicas.
	OnVerdict func(Verdict)

	// Interval is the base time between audits of one target; zero
	// means DefaultInterval.
	Interval time.Duration

	// Jitter spreads each target's next audit uniformly over
	// [Interval*(1-Jitter), Interval*(1+Jitter)], so a fleet of
	// auditors does not thunder in phase. Zero means DefaultJitter;
	// negative disables jitter.
	Jitter float64

	// Timeout bounds one probe attempt; zero means DefaultTimeout.
	Timeout time.Duration

	// MaxRetries is how many times a timed-out probe is retried with
	// exponential backoff before the audit is declared a Timeout;
	// zero means DefaultMaxRetries, negative disables retries.
	MaxRetries int

	// Backoff is the first retry delay, doubling per retry; zero
	// means DefaultBackoff.
	Backoff time.Duration

	// SampleSize is how many messages a routine audit probes; zero
	// means DefaultSampleSize. After a failure the sample doubles per
	// consecutive failure (capped by the target size and
	// wire.MaxAuditSample) and the interval halves, so a suspected
	// free-rider faces escalating scrutiny until it passes again.
	SampleSize int

	// Seed makes scheduling and sampling deterministic in tests; zero
	// seeds from the current time.
	Seed int64

	// Logger receives audit events; nil discards them.
	Logger *slog.Logger

	// Metrics, when set, receives the audit_* instrument families
	// (challenges, verdict outcomes, probe latency, penalties); see
	// internal/audit/metrics.go for the full list. Nil disables
	// instrumentation.
	Metrics *metrics.Registry
}

// Stats are the auditor's cumulative counters.
type Stats struct {
	ChallengesSent  int64 // probes that reached the wire (incl. retries)
	Passed          int64 // audits with every sampled message proven
	Failed          int64 // audits with missing or forged answers
	Timeouts        int64 // audits abandoned after the retry budget
	MessagesProbed  int64 // sampled messages across all audits
	MessagesProven  int64 // sampled messages that verified
	BytesProven     int64 // MessageBytes-weighted proven messages
	PenaltyAssessed float64
}

// PeerHealth summarizes one peer's audit standing.
type PeerHealth struct {
	Peer             string
	Addr             string
	Passed           int64
	Failed           int64 // includes timeouts
	ConsecutiveFails int
	LastOutcome      Outcome
	BytesProven      int64
}

// targetState is one scheduled target.
type targetState struct {
	target      Target
	nextAt      time.Time
	consecFails int
}

// Auditor runs keyed spot-checks against a set of targets.
type Auditor struct {
	cfg Config
	log *slog.Logger
	m   auditorMetrics

	mu      sync.Mutex
	rng     *rand.Rand
	targets []*targetState
	stats   Stats
	health  map[string]*PeerHealth // by address
}

// New validates the configuration and creates an Auditor with no
// targets.
func New(cfg Config) (*Auditor, error) {
	if cfg.Prober == nil {
		return nil, errOf("prober is required")
	}
	if len(cfg.Secret) == 0 {
		return nil, errOf("secret is required")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Interval < 0 {
		return nil, errOf("negative interval")
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = DefaultJitter
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = DefaultSampleSize
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Auditor{
		cfg:    cfg,
		log:    log,
		m:      newAuditorMetrics(cfg.Metrics),
		rng:    rand.New(rand.NewSource(seed)),
		health: make(map[string]*PeerHealth),
	}, nil
}

func errOf(msg string) error { return &configError{msg} }

type configError struct{ msg string }

func (e *configError) Error() string { return "audit: invalid configuration: " + e.msg }
func (e *configError) Unwrap() error { return ErrBadConfig }

// Add schedules a target for auditing. The first audit is due after
// one jittered interval, staggered per target.
func (a *Auditor) Add(t Target) error {
	if err := t.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.targets = append(a.targets, &targetState{
		target: t,
		nextAt: time.Now().Add(a.jitteredLocked(a.cfg.Interval)),
	})
	if _, ok := a.health[t.Addr]; !ok {
		a.health[t.Addr] = &PeerHealth{Peer: t.Peer, Addr: t.Addr}
	}
	return nil
}

// jitteredLocked returns d spread uniformly over [d*(1-J), d*(1+J)].
// Callers hold a.mu (the rng is not concurrency-safe).
func (a *Auditor) jitteredLocked(d time.Duration) time.Duration {
	if a.cfg.Jitter <= 0 || d <= 0 {
		return d
	}
	span := 2 * a.cfg.Jitter * float64(d)
	return time.Duration(float64(d)*(1-a.cfg.Jitter) + a.rng.Float64()*span)
}

// Stats returns a snapshot of the cumulative counters.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Health returns per-peer audit standings, sorted by address.
func (a *Auditor) Health() []PeerHealth {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PeerHealth, 0, len(a.health))
	for _, h := range a.health {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Run audits targets as they come due until ctx is cancelled. One
// audit runs at a time: retention checking is low-rate background
// traffic and must never compete with data transfer for the pipe.
func (a *Auditor) Run(ctx context.Context) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for {
		st, wait := a.nextDue()
		if st == nil {
			// No targets yet: poll for additions.
			wait = a.cfg.Interval / 4
			if wait <= 0 {
				wait = time.Second
			}
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if st == nil {
			continue
		}
		a.auditTarget(ctx, st)
	}
}

// nextDue returns the target with the earliest deadline and how long
// until it is due (zero if overdue).
func (a *Auditor) nextDue() (*targetState, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var best *targetState
	for _, st := range a.targets {
		if best == nil || st.nextAt.Before(best.nextAt) {
			best = st
		}
	}
	if best == nil {
		return nil, 0
	}
	wait := time.Until(best.nextAt)
	if wait < 0 {
		wait = 0
	}
	return best, wait
}

// AuditOnce runs a complete audit round over every registered target,
// in registration order — the synchronous entry point for tests, the
// CLI and the repair loop. Verdicts are returned in target order.
func (a *Auditor) AuditOnce(ctx context.Context) []Verdict {
	a.mu.Lock()
	targets := append([]*targetState(nil), a.targets...)
	a.mu.Unlock()
	out := make([]Verdict, 0, len(targets))
	for _, st := range targets {
		if ctx.Err() != nil {
			break
		}
		out = append(out, a.auditTarget(ctx, st))
	}
	return out
}

// auditTarget audits one target now: sample, challenge, verify, with
// timeout/retry and exponential backoff, then apply penalties,
// escalation and scheduling.
func (a *Auditor) auditTarget(ctx context.Context, st *targetState) Verdict {
	a.mu.Lock()
	sample := a.sampleSizeLocked(st)
	ch, err := BuildChallenge(a.rng, a.cfg.Secret, &st.target, sample)
	a.mu.Unlock()
	v := Verdict{Addr: st.target.Addr, Peer: st.target.Peer, FileID: st.target.FileID}
	if err != nil {
		// Unbuildable challenge (e.g. target lost its digests): treat
		// as a skipped audit, do not penalize the peer.
		v.Err = err
		return v
	}

	var (
		resp        *wire.AuditResponse
		fingerprint string
		probeErr    error
	)
	backoff := a.cfg.Backoff
	for attempt := 0; attempt <= a.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			if ctx.Err() != nil {
				probeErr = ctx.Err()
				break
			}
			backoff *= 2
		}
		probeCtx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
		probeStart := time.Now()
		resp, fingerprint, probeErr = a.cfg.Prober.Audit(probeCtx, st.target.Addr, ch)
		a.m.probeDur.ObserveSince(probeStart)
		cancel()
		v.Attempts++
		a.m.challenges.Inc()
		a.mu.Lock()
		a.stats.ChallengesSent++
		a.mu.Unlock()
		if probeErr == nil {
			break
		}
		a.log.Debug("audit probe failed", "addr", st.target.Addr, "attempt", attempt+1, "err", probeErr)
	}
	if fingerprint != "" {
		v.Peer = fingerprint
	}

	if probeErr != nil {
		v.Outcome = Timeout
		v.Err = probeErr
		v.Tally = Tally{Sampled: len(ch.MessageIDs), Missing: len(ch.MessageIDs)}
	} else {
		v.Tally = VerifyResponse(ch, resp, st.target.Digests)
		if v.Tally.Passed() {
			v.Outcome = Pass
		} else {
			v.Outcome = Fail
		}
	}
	v.Penalty = a.settle(st, &v)
	if a.cfg.OnVerdict != nil {
		a.cfg.OnVerdict(v)
	}
	a.log.Info("audit verdict", "addr", v.Addr, "peer", v.Peer, "file", v.FileID,
		"outcome", v.Outcome.String(), "proven", v.Tally.Proven, "sampled", v.Tally.Sampled,
		"penalty", v.Penalty, "attempts", v.Attempts)
	return v
}

// sampleSizeLocked returns the escalated sample size for a target:
// doubled per consecutive failure, capped by the obligation size and
// the wire limit. Callers hold a.mu.
func (a *Auditor) sampleSizeLocked(st *targetState) int {
	esc := st.consecFails
	if esc > maxEscalation {
		esc = maxEscalation
	}
	sample := a.cfg.SampleSize << esc
	if sample > len(st.target.Digests) {
		sample = len(st.target.Digests)
	}
	if sample > wire.MaxAuditSample {
		sample = wire.MaxAuditSample
	}
	if sample < 1 {
		sample = 1
	}
	return sample
}

// settle updates counters, health, ledger and scheduling after one
// audit, returning the penalty assessed.
func (a *Auditor) settle(st *targetState, v *Verdict) float64 {
	failedProbes := v.Tally.Missing + v.Tally.Forged
	perMessage := a.cfg.PenaltyPerMessage
	if perMessage <= 0 {
		if st.target.MessageBytes > 0 {
			perMessage = float64(st.target.MessageBytes)
		} else {
			perMessage = 1
		}
	}
	var penalty float64
	if v.Outcome != Pass {
		penalty = perMessage * float64(failedProbes)
	}

	a.mu.Lock()
	st.target.Peer = v.Peer
	h := a.health[st.target.Addr]
	if h == nil {
		h = &PeerHealth{Addr: st.target.Addr}
		a.health[st.target.Addr] = h
	}
	if v.Peer != "" {
		h.Peer = v.Peer
	}
	h.LastOutcome = v.Outcome
	a.stats.MessagesProbed += int64(v.Tally.Sampled)
	a.stats.MessagesProven += int64(v.Tally.Proven)
	a.stats.BytesProven += int64(v.Tally.Proven) * int64(st.target.MessageBytes)
	h.BytesProven += int64(v.Tally.Proven) * int64(st.target.MessageBytes)
	switch v.Outcome {
	case Pass:
		a.stats.Passed++
		h.Passed++
		st.consecFails = 0
	case Fail:
		a.stats.Failed++
		h.Failed++
		st.consecFails++
		a.m.escalations.Inc()
	case Timeout:
		a.stats.Timeouts++
		h.Failed++
		st.consecFails++
		a.m.escalations.Inc()
	}
	h.ConsecutiveFails = st.consecFails
	a.stats.PenaltyAssessed += penalty
	a.recordVerdictMetricsLocked(v, penalty)

	// Escalation shortens the revisit interval while failures persist.
	interval := a.cfg.Interval
	esc := st.consecFails
	if esc > maxEscalation {
		esc = maxEscalation
	}
	interval >>= esc
	// Never hammer faster than one probe timeout — unless the operator
	// configured the base interval below that, in which case honor it.
	floor := a.cfg.Timeout
	if a.cfg.Interval < floor {
		floor = a.cfg.Interval
	}
	if interval < floor {
		interval = floor
	}
	st.nextAt = time.Now().Add(a.jitteredLocked(interval))
	a.mu.Unlock()

	if penalty > 0 && a.cfg.Ledger != nil && v.Peer != "" {
		a.cfg.Ledger.Debit(v.Peer, penalty)
	}
	return penalty
}
