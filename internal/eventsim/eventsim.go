// Package eventsim is a message-granular, event-driven simulator that
// cross-validates the fluid (per-slot) model in internal/sim. Where
// the fluid simulator divides each peer's capacity fractionally every
// second, eventsim transmits whole encoded messages one at a time: at
// each completion the peer picks the requester with the smallest
// served/weight virtual time, weights being its receipt-ledger entries
// — weighted-fair-queueing, the deterministic message-granular
// counterpart of Eq. 2. (A naive random pick proportional to ledger
// weights has Pólya-urn reinforcement dynamics and can absorb into
// degenerate fixed points where self-service dies out; WFQ keeps the
// long-run service exactly proportional, like the fluid model.)
//
// If the paper's fixed point is robust to the modeling choice — and
// Sec. IV's analysis says it should be, since only long-run averages
// matter — both simulators must converge to the same allocation. The
// tests and the cross-validation benchmark check exactly that.
package eventsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"asymshare/internal/fairshare"
	"asymshare/internal/trace"
)

// ErrBadConfig is returned for invalid configurations.
var ErrBadConfig = errors.New("eventsim: invalid configuration")

// PeerConfig describes one peer/user pair.
type PeerConfig struct {
	// Name identifies the peer; must be unique and non-empty.
	Name string

	// UploadKbps is the peer's line rate in kilobits/second.
	UploadKbps float64

	// Demand gates when the user wants data (queried at integer
	// seconds, like the fluid simulator).
	Demand trace.Demand

	// DropsStored models a storage free-rider: the peer accepted its
	// pre-dissemination batches but silently discarded them, so every
	// retention audit of it fails. It still uploads — and earns ledger
	// credit — like any other peer; only audits reveal the loss.
	DropsStored bool
}

// Config describes a run.
type Config struct {
	Peers []PeerConfig

	// Duration is the simulated time horizon in seconds.
	Duration float64

	// MessageKbits is the size of one encoded message in kilobits;
	// zero means 256 (a 32 KiB message).
	MessageKbits float64

	// InitialCredit seeds the ledgers; zero means the fairshare
	// default.
	InitialCredit float64

	// Seed drives the weighted recipient draws.
	Seed int64

	// AuditEpochSec > 0 enables keyed retention audits (the simulated
	// counterpart of internal/audit): every epoch each user audits
	// every other peer's stored batches and debits its local ledger
	// entry for any peer that fails, exactly as audit verdicts feed
	// fairshare.Ledger.Debit in the real system. Zero disables audits.
	AuditEpochSec float64

	// AuditPenaltyKbits is the ledger debit per failed audit; zero
	// means eight messages' worth — the default spot-check sample,
	// fully missing.
	AuditPenaltyKbits float64
}

// Result holds the long-run outcome.
type Result struct {
	Names []string

	// ReceivedKbits[i] is the total traffic user i received.
	ReceivedKbits []float64

	// SentKbits[i] is the total traffic peer i transmitted.
	SentKbits []float64

	// Duration is the simulated horizon (seconds).
	Duration float64

	// WindowRate[i][w] is user i's average download rate (kbps) in
	// consecutive windows of WindowSec.
	WindowRate [][]float64
	WindowSec  float64

	// AuditFailures[i] counts failed retention audits of peer i,
	// summed over all auditing users. Zero everywhere when audits are
	// disabled or every peer is honest.
	AuditFailures []int

	// AuditDebitsKbits[i] is the total ledger debit assessed against
	// peer i across all auditors.
	AuditDebitsKbits []float64

	// PairKbits[i][j] is the traffic user i received from peer j.
	// Self-allocation (i == j) is permitted — a peer may spend its own
	// upload on its own user — so PairKbits separates that from the
	// aggregation benefit of everyone else's bandwidth.
	PairKbits [][]float64
}

// FromOthersKbits returns user i's total traffic received from peers
// other than itself — the gain the system exists to provide, and the
// quantity audits take away from free-riders.
func (r *Result) FromOthersKbits(i int) float64 {
	var sum float64
	for j, v := range r.PairKbits[i] {
		if j != i {
			sum += v
		}
	}
	return sum
}

// MeanRateKbps returns user i's average download rate over the run's
// second half (steady state).
func (r *Result) MeanRateKbps(i int) float64 {
	half := len(r.WindowRate[i]) / 2
	if len(r.WindowRate[i]) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.WindowRate[i][half:] {
		sum += v
	}
	return sum / float64(len(r.WindowRate[i])-half)
}

// event is one peer's transmission completion.
type event struct {
	at   float64
	peer int
	seq  int // heap tie-break
}

type eventQueue []event

func (q eventQueue) Len() int      { return len(q) }
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q *eventQueue) Push(x any) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Run executes the event simulation.
func Run(cfg Config) (*Result, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("%w: no peers", ErrBadConfig)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %v", ErrBadConfig, cfg.Duration)
	}
	msgKbits := cfg.MessageKbits
	if msgKbits <= 0 {
		msgKbits = 256
	}
	initial := cfg.InitialCredit
	if initial == 0 {
		initial = fairshare.DefaultInitialCredit
	}
	seen := make(map[string]bool, n)
	for i, p := range cfg.Peers {
		if p.Name == "" || seen[p.Name] {
			return nil, fmt.Errorf("%w: peer %d name %q", ErrBadConfig, i, p.Name)
		}
		seen[p.Name] = true
		if p.Demand == nil {
			return nil, fmt.Errorf("%w: peer %q has no demand", ErrBadConfig, p.Name)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	ledgers := make([]*fairshare.Ledger, n)
	for i := range ledgers {
		ledgers[i] = fairshare.NewLedger(initial)
	}

	const windowSec = 10.0
	windows := int(cfg.Duration/windowSec) + 1
	res := &Result{
		Names:         make([]string, n),
		ReceivedKbits: make([]float64, n),
		SentKbits:     make([]float64, n),
		Duration:      cfg.Duration,
		WindowRate:    make([][]float64, n),
		WindowSec:     windowSec,
	}
	res.AuditFailures = make([]int, n)
	res.AuditDebitsKbits = make([]float64, n)
	res.PairKbits = make([][]float64, n)
	for i, p := range cfg.Peers {
		res.Names[i] = p.Name
		res.WindowRate[i] = make([]float64, windows)
		res.PairKbits[i] = make([]float64, n)
	}

	// Retention audits: each epoch, every user spot-checks every other
	// peer. An honest peer proves possession and nothing happens; a
	// dropper fails everywhere and every auditor debits it locally.
	penaltyKbits := cfg.AuditPenaltyKbits
	if penaltyKbits <= 0 {
		penaltyKbits = 8 * msgKbits
	}
	auditRound := func() {
		for p := 0; p < n; p++ {
			if !cfg.Peers[p].DropsStored {
				continue
			}
			for u := 0; u < n; u++ {
				if u == p {
					continue
				}
				ledgers[u].Debit(cfg.Peers[p].Name, penaltyKbits)
				res.AuditFailures[p]++
				res.AuditDebitsKbits[p] += penaltyKbits
			}
		}
	}
	nextAudit := cfg.AuditEpochSec

	wanting := func(user int, now float64) bool {
		return cfg.Peers[user].Demand.Requests(int(now))
	}

	// served[peer][user] tracks kbits peer has sent each user, the
	// "work" coordinate of the WFQ virtual time.
	served := make([][]float64, n)
	for i := range served {
		served[i] = make([]float64, n)
	}

	// pickRecipient selects the requesting user with the smallest
	// served/weight ratio under the peer's current ledger weights —
	// long-run service proportional to weights, exactly Eq. 2.
	pickRecipient := func(peer int, now float64) (int, bool) {
		best := -1
		var bestKey float64
		for u := 0; u < n; u++ {
			if !wanting(u, now) {
				continue
			}
			w := ledgers[peer].Received(cfg.Peers[u].Name)
			if w <= 0 {
				continue
			}
			key := served[peer][u] / w
			if best < 0 || key < bestKey {
				best = u
				bestKey = key
			}
		}
		if best >= 0 {
			return best, true
		}
		// No requester with positive weight: round-robin the requesters
		// (bootstrap with zero initial credit).
		var req []int
		for u := 0; u < n; u++ {
			if wanting(u, now) {
				req = append(req, u)
			}
		}
		if len(req) == 0 {
			return 0, false
		}
		least := req[0]
		for _, u := range req[1:] {
			if served[peer][u] < served[peer][least] {
				least = u
			}
		}
		return least, true
	}

	// Bootstrap: every peer with capacity schedules its first
	// completion.
	var q eventQueue
	seq := 0
	for i, p := range cfg.Peers {
		if p.UploadKbps <= 0 {
			continue
		}
		heap.Push(&q, event{at: msgKbits / p.UploadKbps * rng.Float64(), peer: i, seq: seq})
		seq++
	}

	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		if e.at > cfg.Duration {
			break
		}
		for cfg.AuditEpochSec > 0 && nextAudit <= e.at {
			auditRound()
			nextAudit += cfg.AuditEpochSec
		}
		peer := e.peer
		rate := cfg.Peers[peer].UploadKbps
		// Deliver the message that just completed, if someone wants it.
		if user, ok := pickRecipient(peer, e.at); ok {
			served[peer][user] += msgKbits
			res.ReceivedKbits[user] += msgKbits
			res.SentKbits[peer] += msgKbits
			res.PairKbits[user][peer] += msgKbits
			w := int(e.at / windowSec)
			if w < windows {
				res.WindowRate[user][w] += msgKbits / windowSec
			}
			ledgers[user].Credit(cfg.Peers[peer].Name, msgKbits)
			heap.Push(&q, event{at: e.at + msgKbits/rate, peer: peer, seq: seq})
		} else {
			// Idle: poll again shortly (next second boundary).
			next := float64(int(e.at)) + 1
			heap.Push(&q, event{at: next, peer: peer, seq: seq})
		}
		seq++
	}
	return res, nil
}
