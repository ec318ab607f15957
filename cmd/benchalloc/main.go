// Command benchalloc measures the allocation subsystem end to end and
// emits BENCH_alloc.json (see EXPERIMENTS.md).
//
// Two experiments:
//
//  1. Policy grid — a sim swarm of honest contributors plus always-on
//     free riders runs under each allocation policy (eq2, eq3, equal,
//     bci, classes). For each policy the report records the Jain
//     fairness index across honest users, the free riders' download
//     relative to an honest user (the incentive metric: low means
//     freeloading does not pay), and the slot at which an honest
//     user's smoothed download settles. The reference columns run at
//     the default ledger bound, far above the population, so nothing
//     is evicted; the same grid repeats with every peer's ledger small
//     enough to force evictions, pinning how much fidelity the tail
//     costs.
//
//  2. Ledger tick — a realloc tick (one PairwiseProportional.Allocate
//     over an active requester set) against ledgers that have seen up
//     to 10^5 distinct requesters, once at a bound above that
//     population and once at the default. At the default the tracked
//     entries stay at the bound while tick time scales with the
//     active set, not the distinct population — the bounded-memory,
//     O(active) claim, measured rather than asserted.
//
// Usage:
//
//	benchalloc [-slots 600] [-seed 7] [-json FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"asymshare/internal/fairshare"
	"asymshare/internal/sim"
	"asymshare/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchalloc:", err)
		os.Exit(1)
	}
}

const (
	honestPeers = 60
	freeRiders  = 12
	uploadKbps  = 1000
	demandGamma = 0.6

	// gridBound is the ledger bound of the grid's bounded columns:
	// below the 71 counterparts each peer meets, so ledgers evict
	// throughout the run.
	gridBound = 64
)

// policyReport is one policy row of BENCH_alloc.json. The *Bounded
// fields are the same run with ledgers at gridBound.
type policyReport struct {
	Policy                string  `json:"policy"`
	Jain                  float64 `json:"jain"`
	FreeRiderShare        float64 `json:"freerider_share"`
	ConvergenceSlot       int     `json:"convergence_slot"`
	JainBounded           float64 `json:"jain_bounded"`
	FreeRiderShareBounded float64 `json:"freerider_share_bounded"`
}

// tickReport is one ledger-tick row: one Allocate call over `Active`
// requesters against a ledger holding `Distinct` counterparts.
type tickReport struct {
	Bound        int     `json:"bound"`
	Distinct     int     `json:"distinct"`
	Active       int     `json:"active"`
	NsPerTick    float64 `json:"ns_per_tick"`
	AllocsPerRun float64 `json:"allocs_per_tick"`
	Entries      int     `json:"entries"`
	TailN        uint64  `json:"tail_n"`
}

type report struct {
	Seed        int64          `json:"seed"`
	Slots       int            `json:"slots"`
	HonestPeers int            `json:"honest_peers"`
	FreeRiders  int            `json:"free_riders"`
	GridBound   int            `json:"ledger_bound"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	Policies    []policyReport `json:"policies"`
	LedgerTicks []tickReport   `json:"ledger_ticks"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchalloc", flag.ContinueOnError)
	slots := fs.Int("slots", 600, "simulated 1-second slots per policy run")
	seed := fs.Int64("seed", 7, "demand-process determinism seed")
	jsonPath := fs.String("json", "", "also write the JSON report here")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep := report{
		Seed:        *seed,
		Slots:       *slots,
		HonestPeers: honestPeers,
		FreeRiders:  freeRiders,
		GridBound:   gridBound,
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}

	fmt.Fprintf(out, "policy grid: %d honest + %d free riders, %d slots, bounded grid at bound %d\n",
		honestPeers, freeRiders, *slots, gridBound)
	fmt.Fprintf(out, "%-8s %8s %10s %12s %14s %10s\n",
		"policy", "jain", "freerider", "convergence", "jain(bounded)", "fr(bnd)")
	for _, name := range []string{"eq2", "eq3", "equal", "bci", "classes"} {
		exact, err := runGrid(name, *slots, *seed, fairshare.DefaultLedgerBound)
		if err != nil {
			return err
		}
		bounded, err := runGrid(name, *slots, *seed, gridBound)
		if err != nil {
			return err
		}
		row := policyReport{
			Policy:                name,
			Jain:                  exact.jain,
			FreeRiderShare:        exact.freeRiderShare,
			ConvergenceSlot:       exact.convergence,
			JainBounded:           bounded.jain,
			FreeRiderShareBounded: bounded.freeRiderShare,
		}
		rep.Policies = append(rep.Policies, row)
		fmt.Fprintf(out, "%-8s %8.4f %10.4f %12d %14.4f %10.4f\n",
			name, row.Jain, row.FreeRiderShare, row.ConvergenceSlot,
			row.JainBounded, row.FreeRiderShareBounded)
	}

	fmt.Fprintf(out, "\nledger tick: PairwiseProportional.Allocate over the active set\n")
	fmt.Fprintf(out, "%-8s %9s %7s %12s %11s %8s %7s\n",
		"bound", "distinct", "active", "ns/tick", "allocs/tick", "entries", "tail")
	for _, distinct := range []int{10_000, 100_000} {
		for _, active := range []int{64, 256, 1024} {
			// Twice the population: no shard overflows, nothing evicted.
			for _, bound := range []int{2 * distinct, fairshare.DefaultLedgerBound} {
				row := benchTick(bound, distinct, active)
				rep.LedgerTicks = append(rep.LedgerTicks, row)
				fmt.Fprintf(out, "%-8d %9d %7d %12.0f %11.1f %8d %7d\n",
					row.Bound, row.Distinct, row.Active, row.NsPerTick,
					row.AllocsPerRun, row.Entries, row.TailN)
			}
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
	}
	return nil
}

// gridResult is one sim run's summary.
type gridResult struct {
	jain           float64
	freeRiderShare float64
	convergence    int
}

// honestPolicy builds the policy the honest peers run under the given
// grid name. declared covers every peer name (eq3's declarations).
func honestPolicy(name string, declared map[fairshare.ID]float64) (fairshare.Allocator, error) {
	switch name {
	case "eq2":
		return fairshare.PairwiseProportional{}, nil
	case "eq3":
		return fairshare.GlobalProportional{DeclaredUpload: declared}, nil
	case "equal":
		return fairshare.EqualSplit{}, nil
	case "bci":
		return fairshare.BiasedContribution{}, nil
	case "classes":
		return fairshare.Classes{Weights: map[fairshare.ServiceClass]float64{1: 2}}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// runGrid simulates one policy: honest contributors under the policy,
// free riders that request every slot and serve nothing, every peer's
// ledger at the given bound.
func runGrid(name string, slots int, seed int64, bound int) (gridResult, error) {
	declared := make(map[fairshare.ID]float64, honestPeers+freeRiders)
	cfg := sim.Config{Slots: slots}
	for i := 0; i < honestPeers; i++ {
		pname := fmt.Sprintf("honest%02d", i)
		declared[fairshare.ID(pname)] = uploadKbps
		policy, err := honestPolicy(name, declared)
		if err != nil {
			return gridResult{}, err
		}
		cfg.Peers = append(cfg.Peers, sim.PeerConfig{
			Name:   pname,
			Upload: trace.Const(uploadKbps),
			Demand: trace.NewBernoulli(demandGamma, seed+int64(i)),
			Policy: policy,
			// Half the honest users ride the premium class so the
			// classes grid has both tiers; other policies ignore it.
			Class:  fairshare.ServiceClass(i % 2),
			Ledger: fairshare.NewBoundedLedger(fairshare.DefaultInitialCredit, bound),
		})
	}
	for i := 0; i < freeRiders; i++ {
		pname := fmt.Sprintf("rider%02d", i)
		// Free riders declare capacity (eq3 believes them) but withhold.
		declared[fairshare.ID(pname)] = uploadKbps
		cfg.Peers = append(cfg.Peers, sim.PeerConfig{
			Name:   pname,
			Upload: trace.Const(uploadKbps),
			Demand: trace.Always{},
			Policy: fairshare.Withhold{},
			Ledger: fairshare.NewBoundedLedger(fairshare.DefaultInitialCredit, bound),
		})
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return gridResult{}, err
	}

	// Steady-state window: the second half of the run.
	from, to := slots/2, slots
	honest := make([]float64, honestPeers)
	for i := range honest {
		honest[i] = res.MeanDownloadWhileRequesting(i, from, to)
	}
	var riders float64
	for i := 0; i < freeRiders; i++ {
		riders += res.MeanDownloadWhileRequesting(honestPeers+i, from, to)
	}
	riders /= freeRiders
	honestMean := 0.0
	for _, v := range honest {
		honestMean += v
	}
	honestMean /= float64(len(honest))

	g := gridResult{jain: sim.JainIndex(honest), convergence: -1}
	if honestMean > 0 {
		g.freeRiderShare = riders / honestMean
	}
	// The raw series zeroes on non-requesting slots, so a fixed-window
	// moving average keeps wandering outside any tight tolerance and the
	// settle slot degenerates to the end of the run. The cumulative
	// average (window = series length) is monotone by the law of large
	// numbers, so its settle slot cleanly separates policies that
	// bootstrap slowly (ledger warm-up) from ones that are fair from
	// slot one.
	if target := res.MeanDownload(0, from, to); target > 0 {
		g.convergence = sim.ConvergenceSlot(res.Download[0], target, 0.1, len(res.Download[0]))
	}
	return g, nil
}

// benchTick measures one realloc tick against a ledger that has seen
// `distinct` counterparts, with `active` of them requesting.
func benchTick(bound, distinct, active int) tickReport {
	book := fairshare.NewBoundedLedger(fairshare.DefaultInitialCredit, bound)
	ids := make([]fairshare.ID, distinct)
	for i := range ids {
		ids[i] = fairshare.ID(fmt.Sprintf("peer-%06d", i))
		book.Credit(ids[i], float64(i%97+1))
	}
	reqs := make([]fairshare.Requester, active)
	for i := range reqs {
		reqs[i] = fairshare.Requester{ID: ids[i*(distinct/active)]}
	}
	p := fairshare.PairwiseProportional{}
	req := fairshare.AllocRequest{
		Capacity:   1e6,
		Requesters: reqs,
		Ledger:     book,
		Scratch:    make(fairshare.Grants, 0, active),
	}
	tick := func() { req.Scratch = p.Allocate(req)[:0] }
	tick() // warm the scratch before measuring

	allocs := testing.AllocsPerRun(100, tick)
	const rounds = 2000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		tick()
	}
	elapsed := time.Since(start)

	row := tickReport{
		Bound:        book.Bound(),
		Distinct:     distinct,
		Active:       active,
		NsPerTick:    float64(elapsed.Nanoseconds()) / rounds,
		AllocsPerRun: allocs,
		Entries:      book.Entries(),
	}
	_, row.TailN = book.Tail()
	return row
}
