// Package sim is the discrete-time simulator used to reproduce the
// fairness and incentive experiments of Sec. V. Time advances in
// one-second slots; at each slot every user independently decides
// whether to request (its Demand process), and every peer divides its
// current upload capacity among the requesting users according to its
// allocation policy, using only its local receipt ledger — exactly the
// model of Sec. IV-A.
//
// By default each grant is delivered as a fluid rate. With
// Config.MessageKbits set, peers instead send whole encoded messages,
// so Sec. III-D's quantization error of large messages can be
// measured on the same loop, and Config.AuditEvery adds the retention
// audits that debit peers who dropped what they stored.
package sim

import (
	"errors"
	"fmt"

	"asymshare/internal/fairshare"
	"asymshare/internal/trace"
)

// ErrBadConfig is returned for invalid simulation configurations.
var ErrBadConfig = errors.New("sim: invalid configuration")

// PeerConfig describes one peer/user pair.
type PeerConfig struct {
	// Name identifies the peer; must be unique and non-empty.
	Name string

	// Upload is the peer's upload-capacity schedule (kbps).
	Upload trace.Schedule

	// Demand is the user's request process.
	Demand trace.Demand

	// Policy is the peer's allocation rule; nil means the paper's
	// Eq. (2) pairwise-proportional rule.
	Policy fairshare.Allocator

	// Ledger is the peer's receipt ledger; nil means a fresh one at
	// Config.InitialCredit.
	Ledger *fairshare.Ledger

	// DropsStored models a storage free-rider: the peer accepted its
	// share of the dissemination but silently discarded it, so every
	// retention audit of it fails. It still uploads, and earns ledger
	// credit, like any other peer; only audits reveal the loss.
	DropsStored bool
}

// AuditPenaltyKbits is the ledger debit for one failed retention
// audit: the default spot-check sample of eight 256-kbit messages,
// all missing.
const AuditPenaltyKbits = 8 * 256

// Config describes a simulation run.
type Config struct {
	Peers []PeerConfig

	// Slots is the number of 1-second time slots to simulate.
	Slots int

	// InitialCredit seeds every ledger pair (Eq. 2's "arbitrary small
	// positive initial values"). Zero means fairshare.DefaultInitialCredit;
	// set it negative to force exactly zero.
	InitialCredit float64

	// LedgerDecay, if in (0, 1), multiplies every ledger entry by this
	// factor each slot — the paper's future-work suggestion for faster
	// adaptation. 0 or >= 1 disables decay.
	LedgerDecay float64

	// MessageKbits, if positive, delivers grants as whole messages of
	// this size instead of a fluid rate. Each peer banks its granted
	// total every slot and, while the bank holds a message, sends one
	// to the requester with the smallest Exchanged/grant — weighted
	// fair queueing, so long-run service stays proportional to Eq. (2)
	// while each slot's split is quantized.
	MessageKbits float64

	// AuditEvery, if positive, runs a retention audit every AuditEvery
	// slots: every user spot-checks every other peer and debits its
	// ledger entry for each DropsStored peer by AuditPenaltyKbits, as
	// audit verdicts feed fairshare.Ledger.Debit in the real system.
	AuditEvery int
}

// Result holds per-slot series for every peer.
type Result struct {
	Names []string

	// Download[i][t] is the total bandwidth user i received at slot t
	// (kbps), summed over all serving peers including its own.
	Download [][]float64

	// Upload[i][t] is the bandwidth peer i actually granted at slot t.
	Upload [][]float64

	// Requesting[i][t] records the demand indicator I_i(t).
	Requesting [][]bool

	// Exchanged[i][j] is the total bandwidth peer i granted to user j
	// over the whole run; Exchanged[i][j]/Slots is the long-run average
	// mu_ij of Sec. IV-C, so Corollary 1 (pairwise fairness) can be
	// checked directly.
	Exchanged [][]float64

	// Ledgers are the final receipt ledgers, indexed like Names.
	Ledgers []*fairshare.Ledger

	// AuditDebits[i] is the total ledger debit assessed against peer i
	// by failed retention audits, summed over all auditors.
	AuditDebits []float64
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("%w: no peers", ErrBadConfig)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("%w: slots=%d", ErrBadConfig, cfg.Slots)
	}
	seen := make(map[string]bool, n)
	for i, p := range cfg.Peers {
		if p.Name == "" {
			return nil, fmt.Errorf("%w: peer %d has empty name", ErrBadConfig, i)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("%w: duplicate peer name %q", ErrBadConfig, p.Name)
		}
		seen[p.Name] = true
		if p.Upload == nil || p.Demand == nil {
			return nil, fmt.Errorf("%w: peer %q missing upload or demand", ErrBadConfig, p.Name)
		}
	}

	initial := cfg.InitialCredit
	switch {
	case initial == 0:
		initial = fairshare.DefaultInitialCredit
	case initial < 0:
		initial = 0
	}

	res := &Result{
		Names:       make([]string, n),
		Download:    make([][]float64, n),
		Upload:      make([][]float64, n),
		Requesting:  make([][]bool, n),
		Exchanged:   make([][]float64, n),
		Ledgers:     make([]*fairshare.Ledger, n),
		AuditDebits: make([]float64, n),
	}
	policies := make([]fairshare.Allocator, n)
	for i, p := range cfg.Peers {
		res.Names[i] = p.Name
		res.Download[i] = make([]float64, cfg.Slots)
		res.Upload[i] = make([]float64, cfg.Slots)
		res.Requesting[i] = make([]bool, cfg.Slots)
		res.Exchanged[i] = make([]float64, n)
		res.Ledgers[i] = p.Ledger
		if p.Ledger == nil {
			res.Ledgers[i] = fairshare.NewLedger(initial)
		}
		policies[i] = p.Policy
		if policies[i] == nil {
			policies[i] = fairshare.PairwiseProportional{}
		}
	}
	index := make(map[string]int, n)
	for i, name := range res.Names {
		index[name] = i
	}

	requesters := make([]fairshare.Requester, 0, n)
	reqIdx := make([]int, 0, n) // peer index of each requester
	allocs := make([]fairshare.Grants, n)
	banked := make([]float64, n) // granted kbits not yet sent as a message
	for t := 0; t < cfg.Slots; t++ {
		if cfg.AuditEvery > 0 && t > 0 && t%cfg.AuditEvery == 0 {
			for p, pc := range cfg.Peers {
				if !pc.DropsStored {
					continue
				}
				for u, l := range res.Ledgers {
					if u != p {
						l.Debit(pc.Name, AuditPenaltyKbits)
						res.AuditDebits[p] += AuditPenaltyKbits
					}
				}
			}
		}
		requesters = requesters[:0]
		reqIdx = reqIdx[:0]
		for i, p := range cfg.Peers {
			if p.Demand.Requests(t) {
				res.Requesting[i][t] = true
				requesters = append(requesters, fairshare.Requester{ID: p.Name})
				reqIdx = append(reqIdx, i)
			}
		}
		// Phase 1: every peer decides simultaneously from the ledgers as
		// they stood at the start of the slot.
		for i, p := range cfg.Peers {
			allocs[i] = allocs[i][:0]
			capacity := p.Upload.Rate(t)
			if capacity <= 0 || len(requesters) == 0 {
				continue
			}
			// Taken is what this peer has already granted each
			// requester, feeding contribution-index policies.
			for r := range requesters {
				requesters[r].Taken = res.Exchanged[i][reqIdx[r]]
			}
			allocs[i] = policies[i].Allocate(fairshare.AllocRequest{
				Capacity:   capacity,
				Requesters: requesters,
				Ledger:     res.Ledgers[i],
				Scratch:    allocs[i],
			})
		}
		// Phase 2: apply transfers and credit receipts. Peer j measures
		// what it received from peer i; this is the only bookkeeping
		// Eq. (2) needs.
		send := func(i, j int, amt float64) {
			res.Download[j][t] += amt
			res.Upload[i][t] += amt
			res.Exchanged[i][j] += amt
			res.Ledgers[j].Credit(cfg.Peers[i].Name, amt)
		}
		for i := range cfg.Peers {
			if cfg.MessageKbits <= 0 {
				for g, grant := range allocs[i] {
					if grant.Rate > 0 {
						send(i, reqIdx[g], grant.Rate)
					}
				}
				continue
			}
			var granted float64
			for _, grant := range allocs[i] {
				if grant.Rate > 0 {
					granted += grant.Rate
				}
			}
			banked[i] += granted
			for banked[i] >= cfg.MessageKbits {
				best, bestKey := -1, 0.0
				for g, grant := range allocs[i] {
					if grant.Rate <= 0 {
						continue
					}
					if key := res.Exchanged[i][reqIdx[g]] / grant.Rate; best < 0 || key < bestKey {
						best, bestKey = reqIdx[g], key
					}
				}
				banked[i] -= cfg.MessageKbits
				send(i, best, cfg.MessageKbits)
			}
		}
		if cfg.LedgerDecay > 0 && cfg.LedgerDecay < 1 {
			for _, l := range res.Ledgers {
				l.Decay(cfg.LedgerDecay)
			}
		}
	}
	return res, nil
}

// Slots returns the number of simulated slots.
func (r *Result) Slots() int {
	if len(r.Download) == 0 {
		return 0
	}
	return len(r.Download[0])
}

// PeerIndex returns the index of a named peer, or -1.
func (r *Result) PeerIndex(name string) int {
	for i, n := range r.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// MeanDownload returns user i's average download rate over [from, to).
func (r *Result) MeanDownload(i, from, to int) float64 {
	return mean(r.Download[i], from, to)
}

// MeanDownloadWhileRequesting returns the average download rate of user
// i over the slots in [from, to) where it was actually requesting —
// the per-request service rate.
func (r *Result) MeanDownloadWhileRequesting(i, from, to int) float64 {
	var sum float64
	count := 0
	for t := clamp(from, 0, len(r.Download[i])); t < clamp(to, 0, len(r.Download[i])); t++ {
		if r.Requesting[i][t] {
			sum += r.Download[i][t]
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// MeanUpload returns peer i's average granted upload over [from, to).
func (r *Result) MeanUpload(i, from, to int) float64 {
	return mean(r.Upload[i], from, to)
}

func mean(series []float64, from, to int) float64 {
	from = clamp(from, 0, len(series))
	to = clamp(to, 0, len(series))
	if to <= from {
		return 0
	}
	var sum float64
	for _, v := range series[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RunningAverage smooths a series with a trailing window of the given
// size (the paper smooths its rate plots with a 10-second running
// average).
func RunningAverage(series []float64, window int) []float64 {
	if window <= 1 {
		out := make([]float64, len(series))
		copy(out, series)
		return out
	}
	out := make([]float64, len(series))
	var sum float64
	for i, v := range series {
		sum += v
		if i >= window {
			sum -= series[i-window]
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}
