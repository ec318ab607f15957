package fairshare

import (
	"math"
	"testing"
)

// FuzzAllocate feeds arbitrary capacities, requester sets and ledger
// states through every policy and asserts the Grants contract never
// breaks: one in-order grant per requester, finite non-negative rates,
// total within capacity.
func FuzzAllocate(f *testing.F) {
	f.Add(float64(100), uint8(3), uint16(50), int16(10), false)
	f.Add(float64(0), uint8(255), uint16(0), int16(-5), true)
	f.Add(math.MaxFloat64/4, uint8(1), uint16(1), int16(0), false)
	f.Add(float64(1e9), uint8(170), uint16(12345), int16(100), true)

	ids := []ID{"a", "b", "c", "d", "e", "f", "g", "h"}

	f.Fuzz(func(t *testing.T, capacity float64, mask uint8, takenRaw uint16, creditRaw int16, bounded bool) {
		if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
			return // the seam's precondition: a real, non-negative capacity
		}
		book := NewLedger(DefaultInitialCredit)
		if bounded {
			book = NewBoundedLedger(DefaultInitialCredit, 3) // evicting: tail in play
		}
		for i, id := range ids {
			amt := float64(creditRaw) * float64(i+1)
			if amt > 0 {
				book.Credit(id, amt)
			} else if amt < 0 {
				book.Debit(id, -amt)
			}
		}
		var reqs []Requester
		for i, id := range ids {
			if mask&(1<<i) == 0 {
				continue
			}
			reqs = append(reqs, Requester{ID: id, Taken: float64(takenRaw)})
		}
		req := AllocRequest{Capacity: capacity, Requesters: reqs, Ledger: book}
		policies := []Allocator{
			PairwiseProportional{},
			GlobalProportional{DeclaredUpload: map[ID]float64{"a": 2, "c": 5}},
			EqualSplit{},
			Withhold{},
			Favor{Members: map[ID]bool{"b": true, "d": true}},
			TitForTat{N: 3},
			BiasedContribution{Beta: 0.7},
		}
		for _, p := range policies {
			g := p.Allocate(req)
			if len(g) != len(reqs) {
				t.Fatalf("%T: %d grants for %d requesters", p, len(g), len(reqs))
			}
			var sum float64
			for i, e := range g {
				if e.ID != reqs[i].ID {
					t.Fatalf("%T: grant %d out of order: %q vs %q", p, i, e.ID, reqs[i].ID)
				}
				if e.Rate < 0 || math.IsNaN(e.Rate) || math.IsInf(e.Rate, 0) {
					t.Fatalf("%T: grant %d rate %v", p, i, e.Rate)
				}
				sum += e.Rate
			}
			if sum > capacity*(1+1e-9)+1e-6 {
				t.Fatalf("%T: granted %v of capacity %v", p, sum, capacity)
			}
		}
	})
}
