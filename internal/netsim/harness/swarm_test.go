package harness

// DHT-scale scenarios: a file is ring-placed across large swarms, its
// holders announce themselves through the DHT, and a cold client that
// knows only a swarm peer fetches byte-identical plaintext — and keyed
// audits debit — with holders resolved through the DHT.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/gf"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/ring"
	"asymshare/internal/store"
)

// swarmPlan keeps generations tiny: GF(2^8), 64-symbol payloads,
// 512-byte chunks (k = 8).
func swarmPlan() chunk.Plan {
	return chunk.Plan{FieldBits: gf.Bits8, M: 64, ChunkSize: 512}
}

// swarmReplicas is how many swarm peers hold each chunk.
const swarmReplicas = 3

// disseminate ring-places data from the home onto swarmReplicas of the
// swarm peers per chunk — what `share -replicas N` does — and waits
// until the home's DHT node resolves every chunk to its holders, which
// announce themselves when their first PUT lands.
func disseminate(t *testing.T, ctx context.Context, s *Swarm, data []byte) *core.ShareResult {
	t.Helper()
	sys, err := core.NewSystem(s.Owner, nil, core.WithPlan(swarmPlan()),
		core.WithClientOptions(client.Options{Transport: s.Fabric.Host(HostHome)}))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(s.Peers))
	for i, p := range s.Peers {
		addrs[i] = p.Addr
	}
	r, err := ring.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ShareFilePlaced(ctx, "swarm.bin", data, r, swarmReplicas)
	if err != nil {
		t.Fatal(err)
	}
	if err := AwaitHolders(ctx, s.HomeDHT, &res.Handle); err != nil {
		t.Fatal(err)
	}
	return res
}

// coldFetch resolves every chunk through the joined node and fetches
// with a fresh client.
func coldFetch(t *testing.T, ctx context.Context, s *Swarm, node *dht.Node,
	res *core.ShareResult) []byte {
	t.Helper()
	remote, err := core.NewSystem(indexIdentity(t, 1_000_000), nil, core.WithPlan(swarmPlan()),
		core.WithClientOptions(client.Options{Transport: s.Fabric.Host(HostUser)}))
	if err != nil {
		t.Fatal(err)
	}
	data, stats, err := remote.FetchFileVia(ctx, node, &res.Handle.Manifest, res.Secret)
	if err != nil {
		t.Fatalf("DHT-resolved fetch: %v", err)
	}
	if stats.Innovative == 0 {
		t.Fatal("fetch recorded no innovative messages")
	}
	return data
}

// TestSwarmTrackerlessThousandPeers is the scale acceptance scenario:
// a 1024-peer swarm on scaled-down links, ring placement from the home,
// DHT lookups that stay within a few hops, then a cold client fetch and
// keyed audits that debit the home ledger — all via DHT discovery.
//
// NETSIM_SEED replays the data, the placement and the sample keys, not
// the routing tables: StartSwarm joins through a pool of workers and
// each lookup queries Alpha contacts in parallel, so the hop figures
// vary between runs of one seed (2.57, 2.53, 2.55 at 4242). A failed
// hop gate therefore logs its own evidence: the hop histogram and the
// home's table size.
func TestSwarmTrackerlessThousandPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-peer swarm scenario skipped in -short")
	}
	seed := Seed(t, 4242)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	s := StartSwarm(t, seed, SwarmConfig{
		N:        1024,
		TableCap: 32,
		Policy:   &netsim.LinkPolicy{Latency: 100 * time.Microsecond},
	})

	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1000) // 2 generations, k=8 each
	rng.Read(data)
	res := disseminate(t, ctx, s, data)

	// Lookup hops from random members. One key's figure mostly reports
	// where its replicas landed, so the home announces 24 random keys
	// and each is looked up 16 times. Over NETSIM_SEED 1–20 the mean
	// read 2.52–2.72 (2.57 at the default seed), the median 2–3, the
	// p90 4 on every seed and the max 5–6. The gate is p90 <= 4 and
	// mean <= 2.9: a routing change that adds a round to a tenth of
	// the lookups, or a fifth of a round on average, fails it.
	const keys, lookupsPerKey = 24, 16
	hops := make([]int, 0, keys*lookupsPerKey)
	for i := 0; i < keys; i++ {
		key := dht.KeyFromFileID(rng.Uint64())
		if err := s.HomeDHT.Announce(ctx, key); err != nil {
			t.Fatalf("announce sample key %d: %v", i, err)
		}
		for j := 0; j < lookupsPerKey; j++ {
			st, err := s.Peers[rng.Intn(len(s.Peers))].DHT.LookupStats(ctx, key)
			if err != nil || len(st.Values) == 0 {
				t.Fatalf("sample key %d lookup %d: %v, %v", i, j, st.Values, err)
			}
			hops = append(hops, st.Hops)
		}
	}
	sort.Ints(hops)
	sum := 0
	for _, h := range hops {
		sum += h
	}
	mean, p90 := float64(sum)/float64(len(hops)), quantile(hops, 0.9)
	t.Logf("lookup hops over %d keys x %d lookups: mean %.2f, median %.1f, p90 %.1f, max %d",
		keys, lookupsPerKey, mean, quantile(hops, 0.5), p90, hops[len(hops)-1])
	if p90 > 4 || mean > 2.9 {
		hist := make(map[int]int)
		for _, h := range hops {
			hist[h]++
		}
		t.Errorf("lookup hops: p90 %.1f (bound 4), mean %.2f (bound 2.9); lookups per hop count %v, home table %d contacts",
			p90, mean, hist, s.HomeDHT.TableSize())
	}

	// The user's DHT node joins through a swarm peer, not the home.
	userDHT := s.UserDHT(ctx, s.Peers[17].DHT.Addr())
	got := coldFetch(t, ctx, s, userDHT, res)
	if !bytes.Equal(got, data) {
		t.Fatal("DHT-resolved fetch is not byte-identical")
	}

	// Keyed audits against DHT-discovered holders. The audit targets
	// come out of discovery, not the test's own bookkeeping; the handle's
	// placement says which batch each holder was given.
	info := res.Handle.Manifest.Chunks[0]
	addrs, err := userDHT.Lookup(ctx, dht.KeyFromFileID(info.FileID))
	if err != nil {
		t.Fatalf("audit lookup: %v", err)
	}
	byAddr := make(map[string]*SwarmPeer, len(s.Peers))
	for _, p := range s.Peers {
		byAddr[p.Addr] = p
	}
	placed := res.Handle.PeersForChunk(0)
	var targets []*SwarmPeer
	var auditTargets []audit.Target
	for _, a := range addrs {
		p, ok := byAddr[a]
		rank := slices.Index(placed, a)
		if !ok || rank < 0 {
			continue
		}
		tg, err := audit.TargetFor(&res.Handle.Manifest, 0, rank, a)
		if err != nil {
			t.Fatal(err)
		}
		tg.Peer = p.ID.Fingerprint()
		targets = append(targets, p)
		auditTargets = append(auditTargets, tg)
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
// with latency-scaled links, ring placement whose holders announce
// themselves through the DHT, and a DHT-resolved fetch byte-identical.
func TestSwarmSmoke(t *testing.T) {
	seed := Seed(t, 77)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	s := StartSwarm(t, seed, SwarmConfig{
		N:      128,
		Policy: &netsim.LinkPolicy{Latency: 200 * time.Microsecond},
	})
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1000)
	rng.Read(data)
	res := disseminate(t, ctx, s, data)

	got := coldFetch(t, ctx, s, s.UserDHT(ctx, s.Peers[3].DHT.Addr()), res)
	if !bytes.Equal(got, data) {
		t.Fatal("DHT-resolved fetch is not byte-identical")
	}
}

// TestDiscoveryFaultsNetsim pins how DHT discovery fails: a client-only
// node's announce is refused before any RPC (it has no address of its
// own to announce), a node that never joined answers ErrNotFound, and a
// lookup through a dead directory errors out within its RPC timeout
// even when the caller sets no deadline, as ErrUnreachable: a fetch
// through it reports the directory down, not the file without holders.
// That failed RPC does not cost the node its only contact: once the
// directory is back, the node resolves again without joining again.
func TestDiscoveryFaultsNetsim(t *testing.T) {
	seed := Seed(t, 55)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	s := StartSwarm(t, seed, SwarmConfig{N: 8})
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 600)
	rng.Read(data)
	res := disseminate(t, ctx, s, data)
	key := dht.KeyFromFileID(res.Handle.Manifest.Chunks[0].FileID)

	userDHT := s.UserDHT(ctx, s.Peers[2].DHT.Addr())
	if addrs, err := userDHT.Lookup(ctx, key); err != nil || len(addrs) == 0 {
		t.Fatalf("lookup = %v, %v; want the announced holders", addrs, err)
	}
	if err := userDHT.Announce(ctx, key); !errors.Is(err, dht.ErrClientOnly) {
		t.Fatalf("client-only announce = %v, want ErrClientOnly", err)
	}

	const rpcTimeout = time.Second
	lonelyNode, err := dht.New(dht.Config{Transport: s.Fabric.Host(HostUser), RPCTimeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lonelyNode.Close() })
	if _, err := lonelyNode.Lookup(ctx, key); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("unjoined DHT lookup = %v, want ErrNotFound", err)
	}

	// A one-node directory on its own host, which the lonely node joins.
	// The directory announces itself under the key (it holds nothing;
	// only the lookups read the record). Once the host is blackholed the
	// lonely node's one contact swallows the dial, and the RPC timeout
	// ends the lookup, not a caller deadline.
	dir, err := startDirectory(t, s.Fabric, dht.Config{RPCTimeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	dirAddr := dir.Addr().String()
	if err := lonelyNode.Join(ctx, dirAddr); err != nil {
		t.Fatal(err)
	}
	if err := dir.DHT().Announce(ctx, key); err != nil {
		t.Fatal(err)
	}
	if addrs, err := lonelyNode.Lookup(ctx, key); err != nil || len(addrs) != 1 || addrs[0] != dirAddr {
		t.Fatalf("directory lookup = %v, %v; want [%s]", addrs, err, dirAddr)
	}
	s.Fabric.Blackhole("directory")
	start := time.Now()
	_, err = lonelyNode.Lookup(context.Background(), key)
	if err == nil {
		t.Fatal("lookup through a blackholed directory succeeded")
	}
	elapsed := time.Since(start)
	if elapsed > 2*rpcTimeout {
		t.Fatalf("blackholed directory lookup took %v, want one %v RPC timeout plus slack", elapsed, rpcTimeout)
	}
	if !errors.Is(err, dht.ErrUnreachable) || errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("blackholed directory lookup = %v, want ErrUnreachable, not ErrNotFound", err)
	}
	t.Logf("blackholed directory lookup failed after %v: %v", elapsed, err)

	// The failed RPC left the directory in the routing table, its only
	// contact: once the host is back the lookup resolves again with no
	// second Join. Then the directory is lost again under a fetch.
	s.Fabric.Restore("directory")
	if addrs, err := lonelyNode.Lookup(ctx, key); err != nil || len(addrs) != 1 || addrs[0] != dirAddr {
		t.Fatalf("lookup once the directory is back = %v, %v; want [%s] without joining again", addrs, err, dirAddr)
	}
	s.Fabric.Blackhole("directory")
	remote, err := core.NewSystem(indexIdentity(t, 1_000_001), nil, core.WithPlan(swarmPlan()),
		core.WithClientOptions(client.Options{Transport: s.Fabric.Host(HostUser)}))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = remote.FetchFileVia(ctx, lonelyNode, &res.Handle.Manifest, res.Secret)
	if !errors.Is(err, dht.ErrUnreachable) || errors.Is(err, client.ErrNoPeers) {
		t.Fatalf("fetch through a blackholed directory = %v, want ErrUnreachable, not ErrNoPeers", err)
	}
}

// startDirectory boots a one-node DHT on the fabric host "directory":
// a storage peer that holds nothing and answers DHT RPCs. t closes it.
func startDirectory(t *testing.T, f *netsim.Fabric, cfg dht.Config) (*peer.Node, error) {
	dir, err := peer.New(peer.Config{
		Identity:  testIdentity(t, 250),
		Store:     store.NewMemory(),
		Transport: f.Host("directory"),
		DHT:       &cfg,
	})
	if err != nil {
		return nil, err
	}
	if err := dir.Start(":0"); err != nil {
		return nil, err
	}
	t.Cleanup(func() { dir.Close() })
	return dir, nil
}

// quantile reads the q-quantile of sorted, interpolating between ranks.
func quantile(sorted []int, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}
