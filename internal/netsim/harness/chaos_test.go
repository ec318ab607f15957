package harness

// End-to-end chaos tests: the real protocol stack — wire framing,
// mutual handshakes, rlnc streams, audits, the fairness ledger —
// driven through deterministic fault injection on a netsim fabric.
// Every test logs its fabric seed; rerun any failure exactly with
// NETSIM_SEED=<seed> go test ./internal/netsim/harness/...

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/netsim"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// runPartitionFetch is one full scenario: seed a generation across
// three peers (any two suffice to decode), sever the third peer's
// serving direction mid-stream — the deterministic equivalent of a
// partition landing while its DATA stream is in flight — and fetch.
// Returns the decoded bytes and the fabric's event-log dump.
func runPartitionFetch(t *testing.T, seed int64) ([]byte, string, *Generation) {
	t.Helper()
	ctx := testCtx(t)
	c := Start(t, seed, 3)
	// 3 peers x 4 messages, k=8: any two peers jointly decode.
	gen := c.SeedGeneration(ctx, 42, 8, 512, 4096, 4)

	// A scripted burst of lossy probe dials ties the event log to the
	// fabric seed: the drop pattern is drawn from the per-dial RNGs, so
	// different seeds produce different logs while the same seed
	// replays exactly. The loop is serial, so dial ordinals are fixed.
	c.Fabric.SetLink(HostUser, "peer0", netsim.LinkPolicy{DropProb: 0.4})
	user := c.Fabric.Host(HostUser)
	for i := 0; i < 8; i++ {
		if conn, err := user.DialContext(ctx, c.Peers[0].Addr); err == nil {
			conn.Close()
		}
	}
	c.Fabric.SetLink(HostUser, "peer0", netsim.LinkPolicy{})

	// Survivor streams take a few ms; the victim's link severs after
	// ~2 DATA frames, long before the decode can complete without it.
	c.Fabric.SetLink("peer0", HostUser, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
	c.Fabric.SetLink("peer1", HostUser, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
	c.Fabric.SetLink("peer2", HostUser, netsim.LinkPolicy{CutAfterBytes: 1200})

	addrs := c.Lookup(ctx, HostUser, gen.FileID)
	if len(addrs) != 3 {
		t.Fatalf("tracker returned %d peers, want 3", len(addrs))
	}
	// No redials: the dial sequence stays fixed, so the event log is
	// byte-identical across replays of the same seed.
	cl := c.UserClient(client.Options{PeerRetries: -1})
	data, stats, err := cl.FetchGeneration(ctx, addrs, gen.Params, gen.FileID, gen.Secret, gen.Digests)
	if err != nil {
		t.Fatalf("fetch with partitioned peer: %v", err)
	}
	if stats.Innovative < gen.Params.K {
		t.Fatalf("decode completed with rank %d < k=%d", stats.Innovative, gen.Params.K)
	}
	return data, c.Fabric.Events().Dump(), gen
}

func TestFetchSurvivesMidStreamPeerLoss(t *testing.T) {
	seed := Seed(t, 1234)
	data, events, gen := runPartitionFetch(t, seed)
	if !bytes.Equal(data, gen.Data) {
		t.Fatal("decoded bytes differ from original")
	}
	if !strings.Contains(events, "cut after") {
		t.Fatalf("victim link was never cut; events:\n%s", events)
	}
}

// TestPartitionedFetchReplaysFromSeed is the determinism acceptance
// test: the same seed reproduces the identical fault sequence and
// event log; a different seed produces a run that still decodes.
func TestPartitionedFetchReplaysFromSeed(t *testing.T) {
	seed := Seed(t, 1234)
	_, first, _ := runPartitionFetch(t, seed)
	_, second, _ := runPartitionFetch(t, seed)
	if first != second {
		t.Fatalf("same seed %d diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			seed, first, second)
	}
	_, other, _ := runPartitionFetch(t, seed+1)
	if other == first {
		t.Fatal("different seeds produced identical event logs")
	}
}

// TestFetchRetriesAfterMidStreamCut pins the failover fix. Both peers
// are required to decode (k=8, 4 messages each) and peer1's first
// serving connection is severed mid-stream; only a redial can finish.
//
// Before the fix, client.fetchFromPeer treated any EOF as an orderly
// end-of-stream: the severed connection returned nil, no retry
// happened, and FetchGeneration failed with ErrIncomplete at rank < k.
// With abrupt closes classified as retriable (errPeerAborted) and
// Options.PeerRetries redialing, the second connection survives
// (CutConns bounds the cut to the first fetch attempt) and the decode
// completes.
func TestFetchRetriesAfterMidStreamCut(t *testing.T) {
	seed := Seed(t, 99)
	ctx := testCtx(t)
	c := Start(t, seed, 2)
	gen := c.SeedGeneration(ctx, 43, 8, 512, 4096, 4)

	// Ordinal 1 on user->peer1 was the dissemination conn (closed);
	// ordinal 2 is the first fetch attempt — cut mid-stream; ordinal 3,
	// the retry, is allowed through.
	c.Fabric.SetLink("peer1", HostUser, netsim.LinkPolicy{CutAfterBytes: 1200, CutConns: 2})

	cl := c.UserClient(client.Options{RetryBackoff: 20 * time.Millisecond})
	addrs := c.Lookup(ctx, HostUser, gen.FileID)
	data, _, err := cl.FetchGeneration(ctx, addrs, gen.Params, gen.FileID, gen.Secret, gen.Digests)
	if err != nil {
		t.Fatalf("fetch did not fail over to a redial: %v", err)
	}
	if !bytes.Equal(data, gen.Data) {
		t.Fatal("decoded bytes differ from original")
	}
	if n := c.Fabric.Events().Count("cut after"); n != 1 {
		t.Fatalf("expected exactly one mid-stream cut, saw %d", n)
	}

	// The same scenario without retries reproduces the pre-fix
	// behaviour and must fail: rank stalls below k.
	c2 := Start(t, seed, 2)
	gen2 := c2.SeedGeneration(ctx, 43, 8, 512, 4096, 4)
	c2.Fabric.SetLink("peer1", HostUser, netsim.LinkPolicy{CutAfterBytes: 1200, CutConns: 2})
	noRetry := c2.UserClient(client.Options{PeerRetries: -1})
	_, _, err = noRetry.FetchGeneration(ctx, c2.Lookup(ctx, HostUser, gen2.FileID),
		gen2.Params, gen2.FileID, gen2.Secret, gen2.Digests)
	if !errors.Is(err, client.ErrIncomplete) {
		t.Fatalf("retry-less fetch after cut = %v, want ErrIncomplete", err)
	}
}

// TestAuditDebitsBlackholedPeer: a peer that goes dark past the audit
// timeout gets a Timeout verdict every round, each carrying the whole
// sample's penalty. The debits reach the owner's home peer the way
// production sends them (SendAuditVerdicts), and honest peers'
// standings are untouched. When the peer comes back, it passes again.
func TestAuditDebitsBlackholedPeer(t *testing.T) {
	const (
		startCredit = 1000.0
		perMessage  = 10.0
		sample      = 2
	)
	seed := Seed(t, 7)
	ctx := testCtx(t)
	c := Start(t, seed, 3)
	c.SeedGeneration(ctx, 44, 8, 256, 2048, 8)

	cl := c.UserClient(client.Options{DialTimeout: 2 * time.Second})
	credits := make(map[string]uint64, len(c.Peers))
	for _, p := range c.Peers {
		credits[p.ID.Fingerprint()] = uint64(startCredit)
	}
	if err := cl.SendFeedback(ctx, c.HomeAddr, credits); err != nil {
		t.Fatal(err)
	}

	targets := make([]audit.Target, len(c.Peers))
	for i, p := range c.Peers {
		targets[i] = audit.Target{Addr: p.Addr, Peer: p.ID.Fingerprint(), FileID: 44, Digests: p.Digests}
	}
	// round audits every peer once and relays the debits to the home
	// peer.
	round := func(n int) []audit.Verdict {
		t.Helper()
		verdicts, err := audit.Round(ctx, cl, Secret(), targets, audit.Options{
			PenaltyPerMessage: perMessage,
			SampleSize:        sample,
			Timeout:           300 * time.Millisecond,
			MaxRetries:        -1,
			Seed:              seed + int64(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		debits := make(map[string]uint64)
		for _, v := range verdicts {
			if v.Penalty > 0 {
				debits[v.Peer] += uint64(v.Penalty)
			}
		}
		if len(debits) > 0 {
			if err := cl.SendAuditVerdicts(ctx, c.HomeAddr, debits); err != nil {
				t.Fatal(err)
			}
		}
		return verdicts
	}

	// Round 0: everyone answers.
	for i, v := range round(0) {
		if v.Outcome != audit.Pass {
			t.Fatalf("pre-fault verdict %d = %+v", i, v)
		}
	}

	victim := c.Peers[2]
	fp := victim.ID.Fingerprint()
	c.Fabric.Blackhole(victim.Host)
	for n := 1; n <= 3; n++ {
		verdicts := round(n)
		v := verdicts[2]
		if v.Outcome != audit.Timeout || v.Peer != fp || v.Tally.Sampled != sample || v.Penalty != sample*perMessage {
			t.Fatalf("round %d: blackholed peer verdict = %+v, want Timeout for %s with penalty %v",
				n, v, fp, sample*perMessage)
		}
		if got, want := c.Home.Ledger().Received(fp), startCredit-float64(n)*sample*perMessage; got != want {
			t.Fatalf("round %d: victim standing = %v, want %v", n, got, want)
		}
		for i, hv := range verdicts[:2] {
			if hv.Outcome != audit.Pass {
				t.Fatalf("round %d: honest peer %d verdict = %+v", n, i, hv)
			}
		}
	}
	for _, p := range c.Peers[:2] {
		if got := c.Home.Ledger().Received(p.ID.Fingerprint()); got != startCredit {
			t.Fatalf("honest peer %s standing = %v, want %v", p.Host, got, startCredit)
		}
	}

	// The peer comes back and proves its holdings.
	c.Fabric.Restore(victim.Host)
	if v := round(4)[2]; v.Outcome != audit.Pass {
		t.Fatalf("post-restore verdict = %+v", v)
	}
}

// TestGrantsReconvergeAfterPartitionHeals follows Eq. (2) standings
// through a partition's life cycle. Receipts credit serving peers in
// the owner's ledger; while peer1 is partitioned only peer0 can serve
// (the fetch still completes — failover), so peer0's grant pulls
// ahead. After the heal, service from peer1 resumes, its receipts
// land, and the pairwise-proportional grants re-converge.
func TestGrantsReconvergeAfterPartitionHeals(t *testing.T) {
	const cap = 90.0
	seed := Seed(t, 5)
	ctx := testCtx(t)
	c := Start(t, seed, 2)
	// Each peer holds a full rank on its own: either can serve the
	// generation alone.
	gen := c.SeedGeneration(ctx, 45, 8, 256, 2048, 8)

	fp0 := c.Peers[0].ID.Fingerprint()
	fp1 := c.Peers[1].ID.Fingerprint()
	requesters := []fairshare.ID{fp0, fp1}
	ledger := c.Home.Ledger()
	shares := func() map[fairshare.ID]float64 {
		return fairshare.PairwiseProportional{}.Allocate(fairshare.NewRequest(cap, requesters, ledger)).Map()
	}
	cl := c.UserClient(client.Options{RetryBackoff: 20 * time.Millisecond})
	// fetchAndCredit fetches from the given peers and reports a fixed
	// receipt for every peer that actually served bytes.
	fetchAndCredit := func(addrs []string) {
		t.Helper()
		_, stats, err := cl.FetchGeneration(ctx, addrs, gen.Params, gen.FileID, gen.Secret, gen.Digests)
		if err != nil {
			t.Fatalf("fetch from %v: %v", addrs, err)
		}
		receipts := make(map[string]uint64)
		for fp := range stats.BytesFrom {
			receipts[fp] = 500
		}
		if err := cl.SendFeedback(ctx, c.HomeAddr, receipts); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: both peers serve; equal standings, equal grants.
	seedCredits := map[string]uint64{fp0: 1000, fp1: 1000}
	if err := cl.SendFeedback(ctx, c.HomeAddr, seedCredits); err != nil {
		t.Fatal(err)
	}
	before := shares()
	if before[fp0] != before[fp1] {
		t.Fatalf("pre-partition grants unequal: %v vs %v", before[fp0], before[fp1])
	}

	// Phase 2: peer1 partitioned. The fetch fails over to peer0 and
	// completes; only peer0 earns receipts, so its grant pulls ahead.
	c.Fabric.Partition("island", c.Peers[1].Host)
	fetchAndCredit(c.Lookup(ctx, HostUser, gen.FileID))
	if got := ledger.Received(fp1); got != 1000 {
		t.Fatalf("partitioned peer earned receipts: %v", got)
	}
	during := shares()
	if during[fp0] <= during[fp1] {
		t.Fatalf("grants did not skew to the serving peer: %v vs %v", during[fp0], during[fp1])
	}

	// Phase 3: heal. peer1 serves the next download alone; its
	// receipts land and the grants re-converge.
	c.Fabric.Heal()
	fetchAndCredit([]string{c.Peers[1].Addr})
	after := shares()
	if after[fp0] != after[fp1] {
		t.Fatalf("grants did not re-converge after heal: %v vs %v", after[fp0], after[fp1])
	}
	if ledger.Received(fp1) != ledger.Received(fp0) {
		t.Fatalf("standings diverged after heal: %v vs %v",
			ledger.Received(fp0), ledger.Received(fp1))
	}
}
