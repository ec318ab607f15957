package client

// Per-peer health tracking for the resilient fetch path (DESIGN.md
// §15). Every peer the client talks to accumulates an EWMA of stream
// latency, failure and shed counts, and a circuit-breaker state
// (breaker.go). The hedged chunk ladder (ladder.go) ranks peers by
// these scores, and the hedge delay — how long a stream may make no
// progress before it is re-issued on the next-healthiest peer — is
// derived from a small reservoir of recent stream latencies (p95 with
// headroom) unless Options.HedgeDelay pins it. The record also carries
// the one thing the unhedged ladder asks of it: whether the peer has
// been seen to outrun STOP, and so is asked for shares (surplusVerdict,
// shares).

import (
	"sort"
	"sync"
	"time"
)

const (
	// latencyAlpha is the EWMA smoothing factor for per-peer stream
	// latency: recent transfers dominate, old history decays in ~3
	// samples.
	latencyAlpha = 0.3

	// latencyReservoirSize bounds the shared recent-latency ring that
	// feeds the p95 hedge-delay estimate.
	latencyReservoirSize = 64

	// minHedgeSamples gates the adaptive estimate; with fewer samples
	// the default delay applies.
	minHedgeSamples = 8

	// hedgeHeadroom multiplies the p95 latency into the hedge delay so
	// ordinary tail transfers do not trigger spurious hedges.
	hedgeHeadroom = 1.5

	// minHedgeDelay / maxHedgeDelay clamp the adaptive estimate.
	minHedgeDelay = 20 * time.Millisecond
	maxHedgeDelay = 2 * time.Second

	// shedScoreCap bounds the score penalty accumulated from sheds so a
	// long-lived client can still rehabilitate a once-busy peer.
	shedScoreCap = 25

	// surplusEvidence is how many DATA frames of one generation must
	// reach a session after that generation's stream has ended for the
	// generation to count against the peer: it outran STOP. One frame is
	// what a token-bucket peer has in flight when STOP is sent. Now and
	// then such a peer shows two — its bucket hands out reservations, so
	// a rate raised while a stream waits one out lets the next message
	// through on its heels — and a client that stalls finds a backlog on
	// every generation it had in flight. A peer nothing paces shows
	// nearly all it holds, on every generation.
	surplusEvidence = 2

	// surplusStrikes is the count against a peer at which it is marked.
	// A generation that outran STOP is a strike, one that did not takes
	// a strike back, and the count never goes below zero: a peer
	// nothing paces gets there in little more than surplusStrikes
	// generations even if it wins the odd chunk outright (every message
	// it sent was needed, so none was surplus); one stall of the client
	// is at most a fetch's window of strikes, half of what it takes.
	surplusStrikes = 2 * fetchFileStreams

	// sharePeriod ages the mark, which cannot refresh itself: a peer
	// held to its share sends no surplus. Every sharePeriod-th generation
	// a marked peer serves is a probe, asked for everything again, and
	// its verdict decides: surplus, and the age starts over; none, and
	// the mark lapses; no verdict (the call ended first), and the next
	// probe is a period away. One unsplit generation in 64 costs ≈ 3 %
	// extra bytes where all four peers of a fetch probe together
	// (DESIGN.md §15).
	sharePeriod = 64
)

// DefaultHedgeDelay is the hedge delay used until enough stream
// latencies have been observed to estimate a p95.
const DefaultHedgeDelay = 300 * time.Millisecond

// HealthSnapshot reports one peer's accumulated health state; see
// Client.PeerHealth.
type HealthSnapshot struct {
	// Latency is the EWMA of completed stream latencies (0 = no sample).
	Latency time.Duration

	// Successes / Failures / Sheds count classified stream outcomes.
	Successes int64
	Failures  int64
	Sheds     int64

	// ConsecFails is the current run of uninterrupted failures.
	ConsecFails int

	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string

	// OutrunsStop reports the surplus mark: the peer's DATA frames have
	// kept arriving after STOP, so the unhedged ladder asks it for a
	// share of each generation rather than all it holds.
	OutrunsStop bool
}

// peerHealth is one peer's mutable health record; all fields are
// guarded by the owning registry's mutex.
type peerHealth struct {
	ewmaSeconds float64
	successes   int64
	failures    int64
	sheds       int64
	consecFails int

	state     breakerState
	openUntil time.Time
	cooldown  time.Duration
	probing   bool

	// outruns marks a peer whose frames keep arriving after STOP: the
	// unhedged ladder asks it for a share of each generation instead of
	// everything (ladder.go). strikes is the count of generations
	// against it while unmarked (see surplusStrikes); shareAge, once
	// marked, the generations served under a share since it last showed
	// surplus.
	outruns  bool
	strikes  int
	shareAge int
	probed   bool // a probe is out and has had no verdict yet
}

// healthRegistry aggregates per-peer health plus the shared latency
// reservoir. One registry per Client; safe for concurrent use.
type healthRegistry struct {
	mu    sync.Mutex
	peers map[string]*peerHealth
	now   func() time.Time // injectable clock for breaker tests

	lat    [latencyReservoirSize]time.Duration
	latLen int
	latIdx int

	threshold     int
	cooldown      time.Duration
	hedgeOverride time.Duration

	m *clientMetrics
}

func newHealthRegistry(m *clientMetrics, opt Options) *healthRegistry {
	return &healthRegistry{
		peers:         make(map[string]*peerHealth),
		now:           time.Now,
		threshold:     opt.BreakerThreshold,
		cooldown:      opt.BreakerCooldown,
		hedgeOverride: opt.HedgeDelay,
		m:             m,
	}
}

// peerLocked returns addr's record, creating it on first sight.
func (h *healthRegistry) peerLocked(addr string) *peerHealth {
	p, ok := h.peers[addr]
	if !ok {
		p = &peerHealth{}
		h.peers[addr] = p
	}
	return p
}

// recordSuccess folds one well-behaved stream outcome in. latency > 0
// additionally feeds the EWMA and the shared hedge-delay reservoir; a
// zero latency only resets the failure run (used for outcomes that
// prove liveness without timing a full transfer). Any success closes an
// open or half-open breaker.
func (h *healthRegistry) recordSuccess(addr string, latency time.Duration) {
	h.mu.Lock()
	p := h.peerLocked(addr)
	p.successes++
	p.consecFails = 0
	if latency > 0 {
		sec := latency.Seconds()
		if p.ewmaSeconds == 0 {
			p.ewmaSeconds = sec
		} else {
			p.ewmaSeconds += latencyAlpha * (sec - p.ewmaSeconds)
		}
		h.lat[h.latIdx] = latency
		h.latIdx = (h.latIdx + 1) % latencyReservoirSize
		if h.latLen < latencyReservoirSize {
			h.latLen++
		}
	}
	recovered := p.closeBreakerLocked()
	h.mu.Unlock()
	if recovered {
		h.m.breakerRecoveries.Inc()
		h.m.breakerOpen.Add(-1)
	}
}

// recordFailure folds one failed stream outcome in, tripping the
// breaker when the consecutive-failure run reaches the threshold and
// doubling the quarantine when a half-open probe fails.
func (h *healthRegistry) recordFailure(addr string) {
	h.mu.Lock()
	p := h.peerLocked(addr)
	p.failures++
	p.consecFails++
	p.outruns = false
	tripped := p.tripLocked(h.now(), h.threshold, h.cooldown)
	h.mu.Unlock()
	if tripped {
		h.m.breakerOpens.Inc()
		h.m.breakerOpen.Add(1)
	}
}

// recordShed notes a BUSY shed from an overloaded peer. A shed is not a
// failure — the peer answered, correctly, that it is saturated — so it
// feeds the ranking score and never trips the breaker. It does prove
// liveness, though: an open or half-open breaker is closed, releasing
// any claimed half-open probe slot, so a probe stream that ends in a
// shed cannot strand the peer in half-open with its slot claimed
// forever. The capped shed score keeps chronically saturated peers
// down-ranked instead.
func (h *healthRegistry) recordShed(addr string) {
	h.mu.Lock()
	p := h.peerLocked(addr)
	p.sheds++
	p.outruns = false
	recovered := p.closeBreakerLocked()
	h.mu.Unlock()
	if recovered {
		h.m.breakerRecoveries.Inc()
		h.m.breakerOpen.Add(-1)
	}
}

// surplusVerdict folds in what one of addr's sessions saw after one
// generation's stream had ended (session.go): outran says
// surplusEvidence frames still came; its opposite, that the peer had
// more to send, was stopped, and the time for frames to arrive is up.
// Strikes mark an unmarked peer at surplusStrikes. A marked peer can
// only be stopped short on a probe, which so renews the mark or ends
// it; with no probe out, a verdict that it did not outrun STOP is a
// late one, on a stream from before the mark, and says nothing new.
func (h *healthRegistry) surplusVerdict(addr string, outran bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peerLocked(addr)
	switch {
	case p.outruns && outran:
		p.shareAge, p.probed = 0, false
	case p.outruns:
		if p.probed {
			p.outruns = false
		}
	case !outran:
		p.strikes = max(p.strikes-1, 0)
	default:
		if p.strikes++; p.strikes >= surplusStrikes {
			p.outruns, p.strikes, p.shareAge, p.probed = true, 0, 0, false
		}
	}
}

// clearOutruns drops addr's mark: a second round had to finish a share
// it was asked for, so holding it to shares is not paying.
func (h *healthRegistry) clearOutruns(addr string) {
	h.mu.Lock()
	if p, ok := h.peers[addr]; ok {
		p.outruns = false
	}
	h.mu.Unlock()
}

// shares splits one generation of k messages among the marked peers of
// links: limits[i] is the GET limit for links[i] — ceil(k / marked) for
// a marked peer, 0 ("all you have") for the rest. It returns nil when
// nothing is split — no peer marked, the paced-peer case, where every
// request is the unlimited one it has always been. Each call ages the
// marks it finds, and every sharePeriod-th generation of a marked peer
// is its probe: unlimited, and outside the split.
func (h *healthRegistry) shares(links []*peerLink, k int) (limits []uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	marked := 0
	for i, l := range links {
		p, ok := h.peers[l.addr]
		if !ok || !p.outruns {
			continue
		}
		if p.shareAge++; p.shareAge%sharePeriod == 0 {
			p.probed = true
			continue
		}
		if limits == nil {
			limits = make([]uint32, len(links))
		}
		limits[i] = 1 // marked; sized below, once the count is known
		marked++
	}
	for i := range limits {
		if limits[i] != 0 {
			limits[i] = uint32((k + marked - 1) / marked)
		}
	}
	return limits
}

// scoreLocked ranks a peer for the hedge ladder: lower is healthier.
// EWMA latency dominates; each consecutive failure costs half a second
// of equivalent latency and accumulated sheds add a capped nudge away
// from chronically saturated peers.
func (p *peerHealth) scoreLocked() float64 {
	sheds := float64(p.sheds)
	if sheds > shedScoreCap {
		sheds = shedScoreCap
	}
	return p.ewmaSeconds + 0.5*float64(p.consecFails) + 0.02*sheds
}

// order ranks links for the hedged ladder: closed-breaker peers
// healthiest-first, rotated by rotate so concurrent chunks spread across
// equally healthy peers; from probeFrom, quarantined peers whose
// cooldown has lapsed (half-open probe candidates); from coolFrom, peers
// still inside their cooldown, which only a ladder with nothing else
// left will try.
func (h *healthRegistry) order(links []*peerLink, rotate int) (ladder []*peerLink, probeFrom, coolFrom int) {
	type ranked struct {
		l     *peerLink
		score float64
	}
	h.mu.Lock()
	now := h.now()
	healthy := make([]ranked, 0, len(links))
	var probes, cooling []*peerLink
	for _, l := range links {
		p, ok := h.peers[l.addr]
		switch {
		case !ok:
			healthy = append(healthy, ranked{l: l})
		case p.state == breakerClosed:
			healthy = append(healthy, ranked{l: l, score: p.scoreLocked()})
		case p.allowLocked(now):
			probes = append(probes, l)
		default:
			cooling = append(cooling, l)
		}
	}
	h.mu.Unlock()
	sort.SliceStable(healthy, func(i, j int) bool { return healthy[i].score < healthy[j].score })
	ladder = make([]*peerLink, 0, len(links))
	for i, n := 0, len(healthy); i < n; i++ {
		ladder = append(ladder, healthy[(rotate+i)%n].l)
	}
	probeFrom = len(ladder)
	ladder = append(ladder, probes...)
	coolFrom = len(ladder)
	return append(ladder, cooling...), probeFrom, coolFrom
}

// hedgeDelay returns how long a chunk stream may sit without progress
// before a hedge is launched: the configured override if set, otherwise
// p95 of recent stream latencies with headroom, otherwise the default.
func (h *healthRegistry) hedgeDelay() time.Duration {
	if h.hedgeOverride > 0 {
		return h.hedgeOverride
	}
	h.mu.Lock()
	n := h.latLen
	var buf []time.Duration
	if n >= minHedgeSamples {
		buf = make([]time.Duration, n)
		copy(buf, h.lat[:n])
	}
	h.mu.Unlock()
	if buf == nil {
		return DefaultHedgeDelay
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	p95 := buf[len(buf)*95/100]
	d := time.Duration(float64(p95) * hedgeHeadroom)
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d
}

// snapshot reports addr's current health; the zero snapshot for a peer
// never seen reads as closed.
func (h *healthRegistry) snapshot(addr string) HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[addr]
	if !ok {
		return HealthSnapshot{Breaker: breakerClosed.String()}
	}
	return HealthSnapshot{
		Latency:     time.Duration(p.ewmaSeconds * float64(time.Second)),
		Successes:   p.successes,
		Failures:    p.failures,
		Sheds:       p.sheds,
		ConsecFails: p.consecFails,
		Breaker:     p.state.String(),
		OutrunsStop: p.outruns,
	}
}

// PeerHealth reports the client's accumulated health view of one peer
// address: latency EWMA, outcome counts and circuit-breaker state.
func (c *Client) PeerHealth(addr string) HealthSnapshot {
	return c.health.snapshot(addr)
}
