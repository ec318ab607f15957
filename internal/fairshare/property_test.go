package fairshare

import (
	"math"
	"testing"
	"testing/quick"
)

// allPolicies returns every built-in policy over the given IDs, split
// into those that serve full capacity whenever requesters are present
// and those that may deliberately withhold.
func allPolicies(ids []ID) (serving, withholding []Allocator) {
	serving = []Allocator{
		PairwiseProportional{},
		GlobalProportional{DeclaredUpload: map[ID]float64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}},
		EqualSplit{},
		TitForTat{N: 2},
		BiasedContribution{},
		BiasedContribution{Beta: 0.5},
	}
	withholding = []Allocator{
		Withhold{},
		Favor{Members: map[ID]bool{"a": true, "c": true}},
	}
	return serving, withholding
}

// checkGrants asserts the Allocator contract for one allocation:
// one grant per requester in request order, every rate non-negative
// and finite, total at most capacity — and exactly capacity for
// serving policies with requesters and capacity present.
func checkGrants(t *testing.T, req AllocRequest, g Grants, serves bool) bool {
	t.Helper()
	if len(g) != len(req.Requesters) {
		t.Errorf("got %d grants for %d requesters", len(g), len(req.Requesters))
		return false
	}
	var sum float64
	for i, e := range g {
		if e.ID != req.Requesters[i].ID {
			t.Errorf("grant %d is for %q, requester is %q", i, e.ID, req.Requesters[i].ID)
			return false
		}
		if e.Rate < 0 || math.IsNaN(e.Rate) || math.IsInf(e.Rate, 0) {
			t.Errorf("grant %d rate %v", i, e.Rate)
			return false
		}
		sum += e.Rate
	}
	if sum > req.Capacity+1e-6*math.Max(1, req.Capacity) {
		t.Errorf("granted %v of capacity %v", sum, req.Capacity)
		return false
	}
	if serves && req.Capacity > 0 && len(req.Requesters) > 0 {
		if math.Abs(sum-req.Capacity) > 1e-6*math.Max(1, req.Capacity) {
			t.Errorf("serving policy granted %v of capacity %v", sum, req.Capacity)
			return false
		}
	}
	return true
}

// TestAllocationConservationProperty drives every policy through
// randomized capacities, requester subsets, ledger states and
// per-requester context, asserting the Grants contract each time.
func TestAllocationConservationProperty(t *testing.T) {
	ids := []ID{"a", "b", "c", "d", "e"}
	exact := NewLedger(DefaultInitialCredit)
	exact.Credit("a", 5)
	exact.Credit("c", 11)
	bounded := NewBoundedLedger(DefaultInitialCredit, 2)
	for _, id := range ids {
		bounded.Credit(id, 3) // overflows the bound: tail in play
	}
	serving, withholding := allPolicies(ids)

	prop := func(capRaw uint16, mask uint8, takenRaw uint16, useBounded bool) bool {
		capacity := float64(capRaw)
		var reqs []Requester
		for i, id := range ids {
			if mask&(1<<i) == 0 {
				continue
			}
			reqs = append(reqs, Requester{ID: id, Taken: float64(takenRaw) * float64(i)})
		}
		var view LedgerView = exact
		if useBounded {
			view = bounded
		}
		req := AllocRequest{Capacity: capacity, Requesters: reqs, Ledger: view}
		for _, p := range serving {
			if !checkGrants(t, req, p.Allocate(req), true) {
				return false
			}
		}
		for _, p := range withholding {
			if !checkGrants(t, req, p.Allocate(req), false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScratchReuseNoAlloc is the hot-path gate: with a warm Scratch
// buffer, PairwiseProportional (and the other proportional policies)
// allocate nothing per realloc tick.
func TestScratchReuseNoAlloc(t *testing.T) {
	l := NewLedger(DefaultInitialCredit)
	reqs := make([]Requester, 8)
	for i := range reqs {
		reqs[i] = Requester{ID: string(rune('a' + i))}
		l.Credit(reqs[i].ID, float64(i+1))
	}
	for _, tc := range []struct {
		name string
		p    Allocator
	}{
		{"eq2", PairwiseProportional{}},
		{"equal", EqualSplit{}},
		{"bci", BiasedContribution{}},
		{"withhold", Withhold{}},
	} {
		scratch := make(Grants, 0, len(reqs))
		req := AllocRequest{Capacity: 1000, Requesters: reqs, Ledger: l, Scratch: scratch}
		if avg := testing.AllocsPerRun(200, func() {
			req.Scratch = req.Scratch[:0]
			req.Scratch = tc.p.Allocate(req)
		}); avg != 0 {
			t.Errorf("%s: %v allocs per tick with warm scratch, want 0", tc.name, avg)
		}
	}
}

// TestBiasedContributionIndex pins the BCI shape: pure contributors
// outrank pure consumers, and β biases giving over taking.
func TestBiasedContributionIndex(t *testing.T) {
	l := NewLedger(0)
	l.Credit("giver", 100)
	// "leech" gave nothing and took plenty.
	req := AllocRequest{
		Capacity: 100,
		Requesters: []Requester{
			{ID: "giver", Taken: 0},
			{ID: "leech", Taken: 1000},
		},
		Ledger: l,
	}
	g := BiasedContribution{}.Allocate(req)
	if g.Rate("giver") < 99 {
		t.Errorf("pure contributor got %v of 100", g.Rate("giver"))
	}
	if g.Rate("leech") > 1 {
		t.Errorf("pure consumer got %v of 100", g.Rate("leech"))
	}
	// A balanced peer (gave as much as it took) scores near 1 with any
	// β and splits roughly evenly with the pure giver.
	req.Requesters[1] = Requester{ID: "even", Taken: 80}
	l.Credit("even", 80)
	g = BiasedContribution{Beta: DefaultBCIBeta}.Allocate(req)
	ratio := g.Rate("even") / g.Rate("giver")
	if ratio < 0.5 || ratio > 1.01 {
		t.Errorf("balanced/giver ratio = %v, want within [0.5, 1]", ratio)
	}
}

// unnamedPolicy is an out-of-package-style Allocator PolicyName has no
// name for.
type unnamedPolicy struct{}

func (unnamedPolicy) Allocate(req AllocRequest) Grants { return EqualSplit{}.Allocate(req) }

// TestPolicyName pins the CLI/metrics names.
func TestPolicyName(t *testing.T) {
	cases := map[string]Allocator{
		"eq2":       PairwiseProportional{},
		"eq3":       GlobalProportional{},
		"equal":     EqualSplit{},
		"withhold":  Withhold{},
		"favor":     Favor{},
		"titfortat": TitForTat{},
		"bci":       BiasedContribution{},
		"custom":    unnamedPolicy{},
	}
	for want, p := range cases {
		if got := PolicyName(p); got != want {
			t.Errorf("PolicyName(%T) = %q, want %q", p, got, want)
		}
	}
}
