package fairshare

// Post-paper allocation policy: the Biased Contribution Index of
// Awasthi & Singh (see PAPERS.md). It rides the same AllocRequest seam
// as the paper's Eq. (2)/(3) rules.

// DefaultBCIBeta is the default bias of BiasedContribution toward
// bandwidth given over bandwidth taken.
const DefaultBCIBeta = 0.8

// BiasedContribution implements the Biased Contribution Index
// (Awasthi & Singh): each requester j is weighted by
//
//	bci_j = (β·recv_j + ε) / (β·recv_j + (1−β)·taken_j + ε)
//
// where recv_j is the bandwidth this peer received from j (the local
// ledger) and taken_j the bandwidth j has already taken from this peer
// (Requester.Taken). A pure contributor scores 1, a pure consumer
// decays toward ε/((1−β)·taken) ≈ 0, and β > 1/2 biases the index so
// giving bandwidth raises standing faster than taking lowers it —
// cheaper bookkeeping than a full pairwise ratio matrix because taken
// is a single per-requester scalar the peer already tracks.
type BiasedContribution struct {
	// Beta is the contribution bias in (0, 1); values outside the open
	// interval fall back to DefaultBCIBeta.
	Beta float64
}

var _ Allocator = BiasedContribution{}

// Allocate implements Allocator.
func (b BiasedContribution) Allocate(req AllocRequest) Grants {
	beta := b.Beta
	if beta <= 0 || beta >= 1 {
		beta = DefaultBCIBeta
	}
	const eps = DefaultInitialCredit
	out := req.grants()
	view := req.view()
	for _, r := range req.Requesters {
		recv, taken := view.Received(r.ID), r.Taken
		if taken < 0 {
			taken = 0
		}
		w := (beta*recv + eps) / (beta*recv + (1-beta)*taken + eps)
		out = append(out, Grant{ID: r.ID, Rate: w})
	}
	return distributeWeights(req.Capacity, out)
}
