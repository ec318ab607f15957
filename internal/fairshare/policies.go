package fairshare

// Post-paper allocation policies: the Biased Contribution Index of
// Awasthi & Singh and the class-weighted differentiated service of
// Zhang et al. (see PAPERS.md). Both ride the same AllocRequest seam
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

// Classes implements differentiated service classes (Zhang et al.):
// each requester's weight is its class weight times its contribution
// standing, so a premium class receives proportionally more bandwidth
// at equal contribution while free riders still starve within every
// class.
type Classes struct {
	// Weights maps a ServiceClass to its multiplier. Classes absent
	// from the map (including the zero class) weigh 1; non-positive
	// weights exclude the class entirely.
	Weights map[ServiceClass]float64
}

var _ Allocator = Classes{}

// classWeight returns the multiplier for c.
func (cl Classes) classWeight(c ServiceClass) float64 {
	if w, ok := cl.Weights[c]; ok {
		return w
	}
	return 1
}

// Allocate implements Allocator.
func (cl Classes) Allocate(req AllocRequest) Grants {
	out := req.grants()
	view := req.view()
	var total float64
	for _, r := range req.Requesters {
		total += view.Received(r.ID)
	}
	for _, r := range req.Requesters {
		cw := cl.classWeight(r.Class)
		if cw < 0 {
			cw = 0
		}
		// Contribution standing scales within the class; the equal-
		// weight bootstrap mirrors PairwiseProportional when nobody
		// has contributed yet.
		w := cw
		if total > 0 {
			w = cw * view.Received(r.ID)
		}
		out = append(out, Grant{ID: r.ID, Rate: w})
	}
	return distributeWeights(req.Capacity, out)
}
