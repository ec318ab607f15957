package fairshare

import "sort"

// TitForTat is a BitTorrent-style baseline: the peer "unchokes" only
// its top-N contributors (by ledger standing) among current requesters
// and splits capacity evenly among them. The paper argues its system
// does not need such symmetric instantaneous reciprocation because
// contributions even out asymptotically (Sec. II-A); this policy exists
// so that claim can be measured — under tit-for-tat a low-rate or
// bursty contributor is frequently choked even though its long-run
// contribution is honest.
type TitForTat struct {
	// N is the unchoke slot count; values < 1 behave as 1.
	N int
}

var _ Allocator = TitForTat{}

// Allocate implements Allocator.
func (tt TitForTat) Allocate(req AllocRequest) Grants {
	out := req.grants()
	for _, r := range req.Requesters {
		out = append(out, Grant{ID: r.ID})
	}
	if req.Capacity <= 0 || len(out) == 0 {
		return out
	}
	n := tt.N
	if n < 1 {
		n = 1
	}
	if n > len(out) {
		n = len(out)
	}
	view := req.view()
	ranked := make([]int, len(out))
	for i := range ranked {
		ranked[i] = i
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		ra, rb := ranked[a], ranked[b]
		va, vb := view.Received(out[ra].ID), view.Received(out[rb].ID)
		if va != vb {
			return va > vb
		}
		return out[ra].ID < out[rb].ID // deterministic tie-break
	})
	// Unchoking the top n even at zero standing doubles as the
	// optimistic-unchoke bootstrap. distributeWeights splits capacity
	// evenly over the unchoked (weight 1).
	for _, i := range ranked[:n] {
		out[i].Rate = 1
	}
	distributeWeights(req.Capacity, out)
	return out
}
