package audit_test

// End-to-end acceptance: over real peer/client TCP connections, a peer
// that drops its stored messages fails audits, is debited in the
// owner's peer ledger (via the FEEDBACK wire path), and receives a
// measurably smaller pairwise-proportional allocation than honest
// peers in the same run — while a fully honest network passes every
// audit with zero debits.

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

const (
	e2eFileID  = 77
	e2eCredit  = 1000.0
	e2ePenalty = 100.0
)

func e2eIdentity(t *testing.T, b byte) *auth.Identity {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func e2eSecret() []byte {
	s := make([]byte, rlnc.SecretLen)
	for i := range s {
		s[i] = byte(i + 1)
	}
	return s
}

type e2ePeer struct {
	node    *peer.Node
	store   *store.Memory
	digests map[uint64]rlnc.Digest // this peer's obligation
	fp      string
}

// e2eNetwork boots a home peer (the owner's own, holding the ledger)
// plus n storage peers, disseminates one generation batch to each over
// real connections, and returns the lot.
func e2eNetwork(t *testing.T, ctx context.Context, owner *auth.Identity, c *client.Client, n int) (*peer.Node, []*e2ePeer, int) {
	t.Helper()
	home, err := peer.New(peer.Config{
		Identity: e2eIdentity(t, 200),
		Store:    store.NewMemory(),
		Owner:    owner.Public(),
		Ledger:   fairshare.NewLedger(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { home.Close() })

	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), 8, 64, 500)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("asymshare"), 56)[:500]
	enc, err := rlnc.NewEncoder(params, e2eFileID, e2eSecret(), data)
	if err != nil {
		t.Fatal(err)
	}

	msgBytes := 0
	peers := make([]*e2ePeer, n)
	for i := range peers {
		st := store.NewMemory()
		id := e2eIdentity(t, byte(201+i))
		node, err := peer.New(peer.Config{
			Identity: id,
			Store:    st,
			Trusted:  auth.NewTrustSet(owner.Public()),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })

		batch, err := enc.BatchForPeer(i, params.K)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Disseminate(ctx, node.Addr().String(), batch); err != nil {
			t.Fatal(err)
		}
		digests := make(map[uint64]rlnc.Digest, len(batch))
		for _, msg := range batch {
			digests[msg.MessageID] = msg.Digest()
			buf, err := msg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			msgBytes = len(buf)
		}
		peers[i] = &e2ePeer{node: node, store: st, digests: digests, fp: id.Fingerprint()}
	}
	return home, peers, msgBytes
}

// e2eAudit runs one audit round against every storage peer, relays the
// verdict debits to the home peer over the wire, and totals the round.
func e2eAudit(t *testing.T, ctx context.Context, c *client.Client, home *peer.Node, peers []*e2ePeer) (audit.Stats, []audit.Verdict) {
	t.Helper()
	targets := make([]audit.Target, len(peers))
	for i, p := range peers {
		targets[i] = audit.Target{Addr: p.node.Addr().String(), FileID: e2eFileID, Digests: p.digests}
	}
	verdicts, err := audit.Round(ctx, c, e2eSecret(), targets, audit.Options{
		PenaltyPerMessage: e2ePenalty,
		SampleSize:        8,
		Timeout:           5 * time.Second,
		Seed:              21,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats audit.Stats
	debits := make(map[string]uint64)
	for _, v := range verdicts {
		switch v.Outcome {
		case audit.Pass:
			stats.Passed++
		case audit.Fail:
			stats.Failed++
		case audit.Timeout:
			stats.Timeouts++
		}
		stats.PenaltyAssessed += v.Penalty
		if v.Penalty > 0 {
			debits[v.Peer] += uint64(math.Round(v.Penalty))
		}
	}
	if err := c.SendAuditVerdicts(ctx, home.Addr().String(), debits); err != nil {
		t.Fatal(err)
	}
	return stats, verdicts
}

func e2eAllocate(home *peer.Node, peers []*e2ePeer) map[fairshare.ID]float64 {
	requesters := make([]fairshare.ID, len(peers))
	for i, p := range peers {
		requesters[i] = p.fp
	}
	return fairshare.PairwiseProportional{}.Allocate(fairshare.NewRequest(90, requesters, home.Ledger())).Map()
}

func TestE2EDroppingPeerFailsAuditsAndLosesAllocation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	owner := e2eIdentity(t, 199)
	c, err := client.New(owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	home, peers, _ := e2eNetwork(t, ctx, owner, c, 3)

	// Every peer starts with equal earned credit, reported over the
	// wire the same way receipt feedback normally is.
	credits := make(map[string]uint64, len(peers))
	for _, p := range peers {
		credits[p.fp] = uint64(e2eCredit)
	}
	if err := c.SendFeedback(ctx, home.Addr().String(), credits); err != nil {
		t.Fatal(err)
	}

	// Peer 2 silently discards everything it promised to store.
	dropper := peers[2]
	if err := dropper.store.Drop(e2eFileID); err != nil {
		t.Fatal(err)
	}

	stats, verdicts := e2eAudit(t, ctx, c, home, peers)
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts", len(verdicts))
	}
	for i, v := range verdicts[:2] {
		if v.Outcome != audit.Pass || v.Penalty != 0 {
			t.Errorf("honest peer %d verdict = %+v", i, v)
		}
		if v.Peer != peers[i].fp {
			t.Errorf("verdict %d identity = %q, want %q", i, v.Peer, peers[i].fp)
		}
	}
	bad := verdicts[2]
	if bad.Outcome != audit.Fail || bad.Tally.Missing != 8 || bad.Tally.Proven != 0 {
		t.Fatalf("dropper verdict = %+v", bad)
	}
	if bad.Penalty != 8*e2ePenalty {
		t.Errorf("dropper penalty = %v, want %v", bad.Penalty, 8*e2ePenalty)
	}

	// The debit arrived in the home peer's ledger over the wire.
	ledger := home.Ledger()
	if got := ledger.Received(dropper.fp); got != e2eCredit-8*e2ePenalty {
		t.Errorf("dropper ledger standing = %v, want %v", got, e2eCredit-8*e2ePenalty)
	}
	for _, p := range peers[:2] {
		if got := ledger.Received(p.fp); got != e2eCredit {
			t.Errorf("honest peer %s standing = %v, want %v", p.fp, got, e2eCredit)
		}
	}

	// And the dropper's pairwise-proportional share collapses.
	shares := e2eAllocate(home, peers)
	if shares[dropper.fp] >= shares[peers[0].fp]/2 {
		t.Errorf("dropper share %v not measurably below honest share %v",
			shares[dropper.fp], shares[peers[0].fp])
	}
	if shares[peers[0].fp] != shares[peers[1].fp] {
		t.Errorf("honest shares diverged: %v vs %v", shares[peers[0].fp], shares[peers[1].fp])
	}

	if stats.Passed != 2 || stats.Failed != 1 || stats.PenaltyAssessed != 8*e2ePenalty {
		t.Errorf("auditor stats = %+v", stats)
	}
}

func TestE2EHonestNetworkPassesWithZeroDebits(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	owner := e2eIdentity(t, 199)
	c, err := client.New(owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	home, peers, _ := e2eNetwork(t, ctx, owner, c, 3)
	credits := make(map[string]uint64, len(peers))
	for _, p := range peers {
		credits[p.fp] = uint64(e2eCredit)
	}
	if err := c.SendFeedback(ctx, home.Addr().String(), credits); err != nil {
		t.Fatal(err)
	}

	stats, verdicts := e2eAudit(t, ctx, c, home, peers)
	for i, v := range verdicts {
		if v.Outcome != audit.Pass || v.Penalty != 0 {
			t.Errorf("verdict %d = %+v", i, v)
		}
	}
	if stats.Passed != 3 || stats.Failed != 0 || stats.Timeouts != 0 || stats.PenaltyAssessed != 0 {
		t.Errorf("stats = %+v", stats)
	}
	ledger := home.Ledger()
	shares := e2eAllocate(home, peers)
	for _, p := range peers {
		if got := ledger.Received(p.fp); got != e2eCredit {
			t.Errorf("peer %s standing = %v, want untouched %v", p.fp, got, e2eCredit)
		}
		if want := 90.0 / 3; shares[p.fp] != want {
			t.Errorf("peer %s share = %v, want %v", p.fp, shares[p.fp], want)
		}
	}
}
