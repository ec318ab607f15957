package fairshare

// Allocation policies. Each policy answers one question for a single
// peer at a single time slot: given my upload capacity and the set of
// users currently requesting, how much do I give each of them?
//
// The seam is request/response: the caller builds an AllocRequest
// carrying the (possibly estimated) capacity, the requesters with the
// bandwidth each has already taken, and a read-only LedgerView; the
// policy returns Grants — one typed Grant per requester, in request
// order. Policies never see a mutable ledger and callers never alias a
// policy-owned map: the Grants slice is the caller's (req.Scratch is
// reused when provided), so a realloc tick on the peer hot path runs
// without allocating.
//
// Honest peers run PairwiseProportional (Eq. 2). The other policies
// are the paper's baselines, the adversarial strategies of Sec. V, and
// one post-paper rule: the Biased Contribution Index (Awasthi &
// Singh). Theorem 1 guarantees an honest user's payoff no matter which
// of these the other peers run.

// LedgerView is the read-only standing a policy may consult: the
// cumulative bandwidth this peer has received from a counterpart.
// *Ledger implements it, as do the fakes tests hand a policy; policies
// must not assume the concrete type.
type LedgerView interface {
	// Received returns the cumulative amount received from a
	// counterpart (or the ledger's initial credit for strangers).
	Received(from ID) float64
}

// Requester is one requesting user plus the per-requester context a
// policy may weigh.
type Requester struct {
	// ID identifies the requester.
	ID ID

	// Taken is the cumulative bandwidth this peer has already granted
	// the requester (used by BiasedContribution). Callers that do not
	// track it leave it zero.
	Taken float64
}

// AllocRequest carries one allocation decision's inputs.
type AllocRequest struct {
	// Capacity is the upload capacity to divide — configured, or
	// replaced each tick by an online estimate (internal/estimate).
	Capacity float64

	// Requesters are the users requesting this tick.
	Requesters []Requester

	// Ledger is the read-only receipt standing. May be nil for
	// policies that do not consult it.
	Ledger LedgerView

	// Scratch, when non-nil, is reused as the backing array of the
	// returned Grants, so steady-state reallocation allocates nothing.
	Scratch Grants
}

// NewRequest builds an AllocRequest from bare requester IDs — the
// convenience constructor for tests and tools that carry no
// per-requester context.
func NewRequest(capacity float64, ids []ID, view LedgerView) AllocRequest {
	rs := make([]Requester, len(ids))
	for i, id := range ids {
		rs[i] = Requester{ID: id}
	}
	return AllocRequest{Capacity: capacity, Requesters: rs, Ledger: view}
}

// grants returns the output buffer for this request: the caller's
// scratch when provided, a fresh slice otherwise.
func (r AllocRequest) grants() Grants {
	if r.Scratch != nil {
		return r.Scratch[:0]
	}
	return make(Grants, 0, len(r.Requesters))
}

// zeroView is the LedgerView used when the request carries none.
type zeroView struct{}

func (zeroView) Received(ID) float64 { return 0 }

// view returns the request's ledger, or an all-zero view.
func (r AllocRequest) view() LedgerView {
	if r.Ledger == nil {
		return zeroView{}
	}
	return r.Ledger
}

// Grant is the bandwidth granted to one requester.
type Grant struct {
	ID   ID
	Rate float64
}

// Grants is an allocation: exactly one Grant per requester of the
// originating request, in request order (zero-rate entries included,
// so callers can range-align grants with requesters).
type Grants []Grant

// Total returns the total bandwidth granted — the successor of the
// old map-based Sum.
func (g Grants) Total() float64 {
	var s float64
	for _, e := range g {
		s += e.Rate
	}
	return s
}

// Rate returns the bandwidth granted to id (0 when absent). Linear
// scan: grant sets are small on any one peer's tick.
func (g Grants) Rate(id ID) float64 {
	for _, e := range g {
		if e.ID == id {
			return e.Rate
		}
	}
	return 0
}

// Map renders the grants as a fresh map — a convenience for tests and
// callers that index shares by ID, never an alias of policy-internal
// state.
func (g Grants) Map() map[ID]float64 {
	out := make(map[ID]float64, len(g))
	for _, e := range g {
		out[e.ID] = e.Rate
	}
	return out
}

// Allocator divides a peer's upload capacity among requesting users.
// Implementations must return one non-negative Grant per requester in
// request order, summing to at most req.Capacity — and to exactly
// req.Capacity when requesters are present, unless the policy
// deliberately withholds bandwidth.
type Allocator interface {
	Allocate(req AllocRequest) Grants
}

// distributeWeights rescales out — whose Rate fields hold non-negative
// weights on entry — into rates proportional to weight summing to
// capacity. A non-positive total weight grants nothing (callers wanting
// an equal-split fallback preload equal weights). It does not allocate.
func distributeWeights(capacity float64, out Grants) Grants {
	var totalW float64
	for i := range out {
		if out[i].Rate < 0 {
			out[i].Rate = 0
		}
		totalW += out[i].Rate
	}
	if capacity <= 0 || totalW <= 0 {
		for i := range out {
			out[i].Rate = 0
		}
		return out
	}
	// Divide before multiplying: the ratio is <= 1, so the product
	// cannot overflow even at extreme capacities or weights.
	for i := range out {
		out[i].Rate = capacity * (out[i].Rate / totalW)
	}
	return out
}

// PairwiseProportional is the paper's proposed rule (Eq. 2): shares
// proportional to cumulative bandwidth received from each requester,
// measured locally.
type PairwiseProportional struct{}

var _ Allocator = PairwiseProportional{}

// Allocate implements Allocator.
func (PairwiseProportional) Allocate(req AllocRequest) Grants {
	out := req.grants()
	view := req.view()
	var total float64
	for _, r := range req.Requesters {
		total += view.Received(r.ID)
	}
	for _, r := range req.Requesters {
		w := 1.0
		if total > 0 {
			w = view.Received(r.ID)
		}
		// No requester has ever contributed and the initial credit is
		// zero: equal weights bootstrap the system.
		out = append(out, Grant{ID: r.ID, Rate: w})
	}
	return distributeWeights(req.Capacity, out)
}

// GlobalProportional is the motivating rule of Sec. IV-B (Eq. 3,
// following Yang & de Veciana): shares proportional to each requester's
// *declared* upload capacity. It is fair only if declarations are
// honest — a peer gains by over-declaring, which is why the paper
// replaces it with local measurements.
type GlobalProportional struct {
	// DeclaredUpload maps each user to the upload capacity it claims to
	// contribute. Missing users count as zero.
	DeclaredUpload map[ID]float64
}

var _ Allocator = GlobalProportional{}

// Allocate implements Allocator.
func (g GlobalProportional) Allocate(req AllocRequest) Grants {
	out := req.grants()
	var total float64
	for _, r := range req.Requesters {
		total += g.DeclaredUpload[r.ID]
	}
	for _, r := range req.Requesters {
		w := 1.0
		if total > 0 {
			w = g.DeclaredUpload[r.ID]
		}
		out = append(out, Grant{ID: r.ID, Rate: w})
	}
	return distributeWeights(req.Capacity, out)
}

// EqualSplit divides capacity evenly among requesters regardless of
// contribution — the "no accounting" baseline.
type EqualSplit struct{}

var _ Allocator = EqualSplit{}

// Allocate implements Allocator.
func (EqualSplit) Allocate(req AllocRequest) Grants {
	out := req.grants()
	for _, r := range req.Requesters {
		out = append(out, Grant{ID: r.ID, Rate: 1})
	}
	return distributeWeights(req.Capacity, out)
}

// Withhold contributes nothing — the freeloading strategy. (A peer can
// equivalently freeload by reporting zero capacity; this policy models
// one that accepts storage but never serves.)
type Withhold struct{}

var _ Allocator = Withhold{}

// Allocate implements Allocator.
func (Withhold) Allocate(req AllocRequest) Grants {
	out := req.grants()
	for _, r := range req.Requesters {
		out = append(out, Grant{ID: r.ID})
	}
	return out
}

// Favor serves only a fixed coalition, splitting capacity evenly among
// requesting members (a colluding strategy from the resilience
// discussion of Sec. IV-C). Non-members get nothing.
type Favor struct {
	Members map[ID]bool
}

var _ Allocator = Favor{}

// Allocate implements Allocator.
func (f Favor) Allocate(req AllocRequest) Grants {
	out := req.grants()
	for _, r := range req.Requesters {
		w := 0.0
		if f.Members[r.ID] {
			w = 1
		}
		out = append(out, Grant{ID: r.ID, Rate: w})
	}
	return distributeWeights(req.Capacity, out)
}
