// Package fairshare implements the bandwidth allocation schemes of
// Section IV of the paper.
//
// The proposed rule (Eq. 2) has each peer i divide its upload capacity
// mu_i among the users requesting at slot t in proportion to the
// cumulative bandwidth peer i has *received* from each of them:
//
//	mu_ij(t) = mu_i * I_j(t) * R_i[j] / sum_{l: I_l(t)=1} R_i[l]
//
// where R_i[l] = sum_{k<t} mu_li(k) is peer i's local receipt ledger.
// Only local measurements are used — no declared values that a
// malicious peer could inflate — which is exactly the fix over the
// global proportional-fairness rule (Eq. 3) discussed in Sec. IV-B.
package fairshare

import (
	"sort"
	"sync"
	"sync/atomic"

	"asymshare/internal/metrics"
)

// ID identifies a peer/user pair. In the simulator IDs are synthetic
// names; in the real node they are public-key fingerprints.
type ID = string

// DefaultInitialCredit is the "arbitrary small positive initial value"
// of Eq. (2) seeding every pairwise ledger entry so the system can
// bootstrap.
const DefaultInitialCredit = 1e-6

// DefaultLedgerBound is how many counterparts NewLedger tracks exactly.
const DefaultLedgerBound = 4096

// ledgerShardCount is the number of hash shards. Power of two so the
// shard index is a mask.
const ledgerShardCount = 16

// Exported ledger metric names (see DESIGN.md §7).
const (
	MetricCreditEvents    = "fairshare_credit_events_total"
	MetricDebitEvents     = "fairshare_debit_events_total"
	MetricCreditedUnits   = "fairshare_credited_units"
	MetricDebitedUnits    = "fairshare_debited_units"
	MetricLedgerEvictions = "fairshare_ledger_evictions_total"
	MetricLedgerEntries   = "fairshare_ledger_entries"
	MetricLedgerTailSum   = "fairshare_ledger_tail_sum"
)

// ledgerShard is one lock-striped slice of the tracked entries.
type ledgerShard struct {
	mu       sync.RWMutex
	received map[ID]float64
}

// Ledger is one peer's local record of bandwidth received from each
// counterpart — the paper's R_i — in bounded memory. It keeps the top
// Bound standings exactly (hash-sharded maps with a per-shard entry
// cap) and folds everything it evicts into an aggregate tail, in the
// spirit of the space-saving heavy-hitter sketches.
//
// Eviction picks the shard's minimum entry — the counterpart whose
// exact value matters least to a proportional allocator. The tail is a
// conservation reservoir, not a standing oracle: an untracked
// counterpart always reads the initial credit, so a free rider can
// never inherit evicted standing (a tail-mean fallback would whitewash:
// anyone not worth tracking would read as an average contributor). The
// approximation therefore only costs the low end of the distribution:
// heavy contributors keep exact standing, an evicted light contributor
// forfeits its remainder to the aggregate and restarts from the initial
// credit, and Total (tracked + tail) is conserved exactly across
// evictions. Until some shard holds more than Bound/16 counterparts
// nothing is evicted and every reading is exact.
//
// A realloc tick costs O(active requesters): each Received is one shard
// map lookup. Safe for concurrent use.
type Ledger struct {
	initial  float64
	perShard int // entry cap of one shard: Bound / ledgerShardCount
	shards   [ledgerShardCount]ledgerShard
	rev      atomic.Uint64

	tailMu  sync.Mutex
	tailSum float64 // total evicted standing (decays with Decay)
	tailN   uint64  // counterparts ever evicted

	creditEvents  *metrics.Counter
	debitEvents   *metrics.Counter
	creditedUnits *metrics.Gauge
	debitedUnits  *metrics.Gauge
	evictions     *metrics.Counter
	entries       *metrics.Gauge
	tailGauge     *metrics.Gauge
}

// NewLedger returns a ledger whose unseen counterparts start with the
// given initial credit (use DefaultInitialCredit unless testing
// bootstrap behaviour), tracking DefaultLedgerBound of them exactly.
func NewLedger(initial float64) *Ledger {
	return NewBoundedLedger(initial, DefaultLedgerBound)
}

// NewBoundedLedger is NewLedger at a chosen bound (rounded up to a
// multiple of the shard count; DefaultLedgerBound when bound <= 0). A
// loaded ledger document rebuilds its ledger at the bound it recorded
// through it; the eviction tests and the bounded column of the
// allocation-policy benchmark use it to overflow a ledger cheaply.
// Nothing a user configures reaches it.
func NewBoundedLedger(initial float64, bound int) *Ledger {
	if initial < 0 {
		initial = 0
	}
	if bound <= 0 {
		bound = DefaultLedgerBound
	}
	perShard := (bound + ledgerShardCount - 1) / ledgerShardCount
	l := &Ledger{initial: initial, perShard: perShard}
	for i := range l.shards {
		l.shards[i].received = make(map[ID]float64)
	}
	return l
}

// Bound returns the maximum number of exactly-tracked counterparts.
func (l *Ledger) Bound() int { return l.perShard * ledgerShardCount }

// shardFor hashes an ID onto its shard (FNV-1a).
func (l *Ledger) shardFor(id ID) *ledgerShard {
	var h uint32 = 2166136261
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &l.shards[h&(ledgerShardCount-1)]
}

// evictMinLocked folds the shard's minimum entry into the tail. The
// shard lock must be held. O(perShard), but runs only when an
// insertion overfills a shard — steady-state ticks over tracked
// requesters never evict.
func (l *Ledger) evictMinLocked(s *ledgerShard) {
	var (
		minID ID
		minV  float64
		first = true
	)
	for id, v := range s.received {
		if first || v < minV || (v == minV && id < minID) {
			minID, minV, first = id, v, false
		}
	}
	if first {
		return
	}
	delete(s.received, minID)
	l.tailMu.Lock()
	l.tailSum += minV
	l.tailN++
	l.tailGauge.Set(l.tailSum)
	l.tailMu.Unlock()
	l.evictions.Inc()
	l.entries.Add(-1)
}

// upsertLocked inserts or replaces an entry, then evicts the shard
// minimum if the insertion overfilled it — the new entry competes with
// the incumbents, so a heavy contributor is never displaced by a
// light newcomer. The shard lock must be held.
func (l *Ledger) upsertLocked(s *ledgerShard, id ID, v float64) {
	if _, ok := s.received[id]; !ok {
		l.entries.Add(1)
	}
	s.received[id] = v
	if len(s.received) > l.perShard {
		l.evictMinLocked(s)
	}
}

// Credit records that `amount` bandwidth was received from a
// counterpart. Negative amounts are ignored. A previously evicted (or
// never seen) counterpart re-enters at the initial credit plus the
// amount — its evicted remainder stays in the tail, forfeited.
func (l *Ledger) Credit(from ID, amount float64) {
	if amount <= 0 {
		return
	}
	s := l.shardFor(from)
	s.mu.Lock()
	v, ok := s.received[from]
	if !ok {
		v = l.initial
	}
	l.upsertLocked(s, from, v+amount)
	s.mu.Unlock()
	l.rev.Add(1)
	l.creditEvents.Inc()
	l.creditedUnits.Add(amount)
}

// Debit removes `amount` standing from a counterpart, clamping the
// entry at zero — a peer can lose everything it earned but can never
// be driven into debt that would poison ratio-based allocators with
// negative weights. It is the slashing primitive behind audit
// penalties (internal/audit): a peer caught failing retention
// spot-checks forfeits credit and its allocation share collapses,
// exactly the free-riding deterrent of the contribution-index schemes.
// Negative and zero amounts are ignored.
//
// Debiting an untracked counterpart inserts it at the initial credit
// less the amount, revoking the bootstrap credit too — while its shard
// has room. In a full shard that entry is the minimum and is evicted by
// the same call, so a slashed stranger reads the initial credit again,
// indistinguishable from any other stranger: the tail design promises
// exact standing only to the counterparts worth tracking.
func (l *Ledger) Debit(from ID, amount float64) {
	if amount <= 0 {
		return
	}
	s := l.shardFor(from)
	s.mu.Lock()
	v, ok := s.received[from]
	if !ok {
		v = l.initial
	}
	v -= amount
	if v < 0 {
		v = 0
	}
	l.upsertLocked(s, from, v)
	s.mu.Unlock()
	l.rev.Add(1)
	l.debitEvents.Inc()
	l.debitedUnits.Add(amount)
}

// Received returns the standing of a counterpart: exact for tracked
// entries, the initial credit for everyone else — never the tail, so
// untracked requesters carry no inherited standing.
func (l *Ledger) Received(from ID) float64 {
	s := l.shardFor(from)
	s.mu.RLock()
	v, ok := s.received[from]
	s.mu.RUnlock()
	if ok {
		return v
	}
	return l.initial
}

// Decay multiplies every tracked entry and the aggregate tail by
// factor in (0, 1], implementing the paper's future-work suggestion of
// "disproportionately weighing newer contributions over older ones" to
// speed up adaptation (Sec. V-A, Fig. 8(b) discussion). The evicted
// mass fades at the same rate, so Total scales by factor too.
func (l *Ledger) Decay(factor float64) {
	if factor >= 1 || factor < 0 {
		return
	}
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for id := range s.received {
			s.received[id] *= factor
		}
		s.mu.Unlock()
	}
	l.tailMu.Lock()
	l.tailSum *= factor
	l.tailGauge.Set(l.tailSum)
	l.tailMu.Unlock()
	l.rev.Add(1)
}

// Rev returns a revision counter that changes whenever the ledger
// does. The Checkpointer compares revisions to skip saving a ledger
// that has not moved since the last checkpoint.
func (l *Ledger) Rev() uint64 { return l.rev.Load() }

// Snapshot returns a copy of the exactly-tracked entries. The tail is
// not expanded (its members are unknown by design); use Tail for the
// aggregate.
func (l *Ledger) Snapshot() map[ID]float64 {
	out := make(map[ID]float64)
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		for id, v := range s.received {
			out[id] = v
		}
		s.mu.RUnlock()
	}
	return out
}

// Tail returns the aggregate standing and population of evicted
// counterparts.
func (l *Ledger) Tail() (sum float64, n uint64) {
	l.tailMu.Lock()
	defer l.tailMu.Unlock()
	return l.tailSum, l.tailN
}

// Entries returns how many counterparts are tracked exactly.
func (l *Ledger) Entries() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		n += len(s.received)
		s.mu.RUnlock()
	}
	return n
}

// Total returns tracked plus evicted standing — conserved exactly
// across evictions.
func (l *Ledger) Total() float64 {
	var sum float64
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		for _, v := range s.received {
			sum += v
		}
		s.mu.RUnlock()
	}
	l.tailMu.Lock()
	sum += l.tailSum
	l.tailMu.Unlock()
	return sum
}

// Instrument attaches credit/debit/eviction metrics. The unit gauges
// accumulate the raw amounts (bytes, in the real node), tracking the
// R_i[j] flow Eq. (2) divides by. Safe with a nil registry; returns the
// ledger for chaining.
func (l *Ledger) Instrument(reg *metrics.Registry) *Ledger {
	l.creditEvents = reg.Counter(MetricCreditEvents, "Ledger credit operations applied.")
	l.debitEvents = reg.Counter(MetricDebitEvents, "Ledger debit operations applied (audit penalties).")
	l.creditedUnits = reg.Gauge(MetricCreditedUnits, "Cumulative ledger units credited (bytes received).")
	l.debitedUnits = reg.Gauge(MetricDebitedUnits, "Cumulative ledger units debited (audit penalties).")
	l.evictions = reg.Counter(MetricLedgerEvictions, "Ledger entries evicted into the aggregate tail.")
	l.entries = reg.Gauge(MetricLedgerEntries, "Counterparts tracked exactly by the ledger.")
	l.tailGauge = reg.Gauge(MetricLedgerTailSum, "Aggregate standing of evicted counterparts.")
	l.entries.Set(float64(l.Entries()))
	return l
}

// sortedIDs returns ids in deterministic order.
func sortedIDs(ids []ID) []ID {
	out := make([]ID, len(ids))
	copy(out, ids)
	sort.Strings(out)
	return out
}
