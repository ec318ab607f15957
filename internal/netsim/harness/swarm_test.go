package harness

// Trackerless-scale scenarios: rumor gossip disseminates a file across
// large swarms, the tracker dies mid-run, and a cold client still
// fetches byte-identical plaintext — and keyed audits still debit —
// through DHT discovery alone.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/discovery"
	"asymshare/internal/gf"
	"asymshare/internal/netsim"
	"asymshare/internal/rlnc"
)

// swarmPlan keeps generations tiny: GF(2^8), 64-symbol payloads,
// 512-byte chunks (k = 8).
func swarmPlan() chunk.Plan {
	return chunk.Plan{FieldBits: gf.Bits8, M: 64, ChunkSize: 512}
}

// disseminate shares data from the home's gossip engine and drives
// lockstep rounds until at least wantCoverage peers hold every
// generation in full (or maxRounds elapse). Returns the share result
// and the number of rounds driven.
func disseminate(t *testing.T, ctx context.Context, s *Swarm, data []byte,
	wantCoverage, maxRounds int) (*core.ShareResult, int) {
	t.Helper()
	sys, err := core.NewSystem(s.Owner, nil, core.WithPlan(swarmPlan()),
		core.WithClientOptions(client.Options{Transport: s.Fabric.Host(HostHome)}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ShareFileGossip(ctx, "swarm.bin", data, s.HomeGossip, s.HomeAddr)
	if err != nil {
		t.Fatal(err)
	}
	var fileIDs []uint64
	k := 0
	for _, info := range res.Handle.Manifest.Chunks {
		fileIDs = append(fileIDs, info.FileID)
		k = info.K
	}
	rounds := 0
	for ; rounds < maxRounds && s.Coverage(fileIDs, k) < wantCoverage; rounds++ {
		s.GossipRound(ctx)
	}
	cov := s.Coverage(fileIDs, k)
	if cov < wantCoverage {
		t.Fatalf("after %d rounds coverage is %d/%d peers (want >= %d)",
			rounds, cov, len(s.Peers), wantCoverage)
	}
	t.Logf("gossip covered %d/%d peers in %d rounds", cov, len(s.Peers), rounds)
	return res, rounds
}

// coldFetch resolves every chunk through the user's failover chain and
// fetches with a fresh client.
func coldFetch(t *testing.T, ctx context.Context, s *Swarm, disc discovery.Discovery,
	res *core.ShareResult) []byte {
	t.Helper()
	remote, err := core.NewSystem(indexIdentity(t, 1_000_000), nil, core.WithPlan(swarmPlan()),
		core.WithClientOptions(client.Options{Transport: s.Fabric.Host(HostUser)}))
	if err != nil {
		t.Fatal(err)
	}
	data, stats, err := remote.FetchFileVia(ctx, disc, &res.Handle.Manifest, res.Secret)
	if err != nil {
		t.Fatalf("trackerless fetch: %v", err)
	}
	if stats.Innovative == 0 {
		t.Fatal("fetch recorded no innovative messages")
	}
	return data
}

// TestSwarmTrackerlessThousandPeers is the scale acceptance scenario:
// a 1024-peer swarm on scaled-down links, gossip dissemination from
// the home, the tracker killed mid-run, then a cold client fetch and
// keyed audits that debit the home ledger — all via DHT discovery.
func TestSwarmTrackerlessThousandPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-peer swarm scenario skipped in -short")
	}
	seed := Seed(t, 4242)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	s := StartSwarm(t, seed, SwarmConfig{
		N:       1024,
		Fanout:  3,
		MaxIdle: 8,
		Policy:  &netsim.LinkPolicy{Latency: 100 * time.Microsecond},
	})

	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1000) // 2 generations, k=8 each
	rng.Read(data)

	// Dissemination: ≥ 95% of 1024 peers hold every generation in full.
	res, _ := disseminate(t, ctx, s, data, 973, 60)
	s.WaitAnnounces()

	// The user's DHT node joins through a swarm peer (not the home) —
	// then the tracker dies for good.
	userNode := s.UserDHT(ctx, s.Peers[17].DHT.Addr())
	disc := s.UserFailover(userNode)
	s.KillTracker()

	got := coldFetch(t, ctx, s, disc, res)
	if !bytes.Equal(got, data) {
		t.Fatal("trackerless fetch is not byte-identical")
	}

	// Keyed audits against DHT-discovered holders. The audit targets
	// come out of discovery, not the test's own bookkeeping.
	info := res.Handle.Manifest.Chunks[0]
	addrs, err := disc.Lookup(ctx, info.FileID)
	if err != nil {
		t.Fatalf("post-kill audit lookup: %v", err)
	}
	byAddr := make(map[string]*SwarmPeer, len(s.Peers))
	for _, p := range s.Peers {
		byAddr[p.Addr] = p
	}
	var targets []*SwarmPeer
	for _, a := range addrs {
		if p, ok := byAddr[a]; ok && p.Store.Count(info.FileID) == info.K {
			targets = append(targets, p)
		}
		if len(targets) == 3 {
			break
		}
	}
	if len(targets) < 2 {
		t.Fatalf("discovery yielded %d auditable peers from %v", len(targets), addrs)
	}

	cl := s.Client(HostUser, s.Owner, client.Options{DialTimeout: 2 * time.Second})
	credits := make(map[string]uint64, len(targets))
	for _, p := range targets {
		credits[p.ID.Fingerprint()] = 1000
	}
	if err := cl.SendFeedback(ctx, s.HomeAddr, credits); err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]rlnc.Digest, len(info.Digests))
	for id, d := range info.Digests {
		digests[id] = d
	}
	auditTargets := make([]audit.Target, len(targets))
	for i, p := range targets {
		auditTargets[i] = audit.Target{Addr: p.Addr, Peer: p.ID.Fingerprint(), FileID: info.FileID, Digests: digests}
	}
	opts := audit.Options{
		PenaltyPerMessage: 10,
		SampleSize:        2,
		Timeout:           500 * time.Millisecond,
		MaxRetries:        -1,
		Seed:              seed,
	}
	verdicts, err := audit.Round(ctx, cl, res.Secret, auditTargets, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if v.Outcome != audit.Pass {
			t.Fatalf("audit %d of DHT-discovered peer failed: %+v", i, v)
		}
	}

	// A holder goes dark: its audit times out, and the verdict's debit,
	// relayed to the home peer, lowers its standing there.
	victim := targets[0]
	before := s.Home.Ledger().Received(victim.ID.Fingerprint())
	s.Fabric.Blackhole(victim.Host)
	verdicts, err = audit.Round(ctx, cl, res.Secret, auditTargets[:1], opts)
	if err != nil {
		t.Fatal(err)
	}
	v := verdicts[0]
	if v.Outcome != audit.Timeout {
		t.Fatalf("blackholed holder verdict = %+v, want Timeout", v)
	}
	if err := cl.SendAuditVerdicts(ctx, s.HomeAddr, map[string]uint64{v.Peer: uint64(v.Penalty)}); err != nil {
		t.Fatal(err)
	}
	after := s.Home.Ledger().Received(victim.ID.Fingerprint())
	if after >= before {
		t.Fatalf("standing did not drop: %v -> %v", before, after)
	}
}

// TestSwarmSmoke is the CI-sized variant (make swarm-smoke): 128 peers
// with latency-scaled links, gossip dissemination, tracker killed,
// trackerless fetch byte-identical.
func TestSwarmSmoke(t *testing.T) {
	seed := Seed(t, 77)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	s := StartSwarm(t, seed, SwarmConfig{
		N:      128,
		Fanout: 3,
		Policy: &netsim.LinkPolicy{Latency: 200 * time.Microsecond},
	})
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1000)
	rng.Read(data)

	res, _ := disseminate(t, ctx, s, data, 122, 40) // ≥ 95%
	s.WaitAnnounces()

	userNode := s.UserDHT(ctx, s.Peers[3].DHT.Addr())
	disc := s.UserFailover(userNode)
	s.KillTracker()

	got := coldFetch(t, ctx, s, disc, res)
	if !bytes.Equal(got, data) {
		t.Fatal("trackerless fetch is not byte-identical")
	}
}

// TestDiscoveryFailoverNetsim drives the Failover chain through real
// netsim faults in both directions: a dead DHT path falls back to the
// tracker, and a blackholed tracker falls through to the DHT — each
// within the caller's context budget, with retriable classification
// doing the routing.
func TestDiscoveryFailoverNetsim(t *testing.T) {
	seed := Seed(t, 55)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	s := StartSwarm(t, seed, SwarmConfig{N: 8, Fanout: 3})
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 600)
	rng.Read(data)
	res, _ := disseminate(t, ctx, s, data, 8, 30)
	s.WaitAnnounces()
	fileID := res.Handle.Manifest.Chunks[0].FileID

	// Mirror the records on the tracker, as a bootstrap seed would.
	trk, err := discovery.NewTracker(s.TrackerAddr, s.Fabric.Host(HostUser))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range res.Handle.Manifest.Chunks {
		if err := trk.Announce(ctx, info.FileID, s.HomeAddr, time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	// Direction 1: the user's DHT node never joined the swarm, so the
	// primary mechanism answers ErrNotFound — retriable — and the
	// chain falls back to the tracker.
	lonelyNode, err := dht.New(dht.Config{
		Advertise:  "user:lonely-dht",
		Transport:  s.Fabric.Host(HostUser),
		RPCTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lonelyNode.Close() })
	lonely, err := discovery.NewDHT(lonelyNode, discovery.DHTOptions{ReannounceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lonely.Lookup(ctx, fileID); !errors.Is(err, discovery.ErrNotFound) || !discovery.Retriable(err) {
		t.Fatalf("unjoined DHT lookup = %v, want retriable ErrNotFound", err)
	}
	chain1, err := discovery.NewFailover(lonely, trk)
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := chain1.Lookup(ctx, fileID)
	if err != nil || len(addrs) == 0 {
		t.Fatalf("DHT-dead failover lookup = %v, %v; want tracker's answer", addrs, err)
	}

	// Direction 2: the tracker host is blackholed; its lookups burn the
	// per-call budget (a retriable net/context error), then the joined
	// DHT answers — all well inside the caller's deadline.
	userNode := s.UserDHT(ctx, s.Peers[2].DHT.Addr())
	userDHT, err := discovery.NewDHT(userNode, discovery.DHTOptions{ReannounceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	trk.SetTimeout(time.Second)
	s.Fabric.Blackhole(HostTracker)
	lctx, lcancel := context.WithTimeout(ctx, 3*time.Second)
	defer lcancel()
	if _, err := trk.Lookup(lctx, fileID); err == nil || !discovery.Retriable(err) {
		t.Fatalf("blackholed tracker lookup = %v, want a retriable error", err)
	}
	chain2, err := discovery.NewFailover(trk, userDHT)
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithTimeout(ctx, 5*time.Second)
	defer fcancel()
	start := time.Now()
	addrs, err = chain2.Lookup(fctx, fileID)
	if err != nil || len(addrs) == 0 {
		t.Fatalf("tracker-dead failover lookup = %v, %v; want DHT's answer", addrs, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failover took %v, leaked past the context budget", elapsed)
	}

	// Fatal classification end-to-end: a malformed announce aborts the
	// chain instead of burning budget on the fallback.
	s.Fabric.Restore(HostTracker)
	if err := trk.Announce(ctx, fileID, "", time.Minute); !errors.Is(err, discovery.ErrBadRecord) || discovery.Retriable(err) {
		t.Fatalf("empty-addr announce = %v, want fatal ErrBadRecord", err)
	}
}
