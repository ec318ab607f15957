package harness

// Overload-resilience scenarios (make overload-smoke, DESIGN.md §14).
//
// Flash crowd: sixteen clients with exponentially spaced fairness
// standings storm one storage peer whose admission bound holds four
// streams — 4x offered load. The shaped uplink must stay ≥90% utilized
// across the whole crowd (refused clients honor RETRY_AFTER and win a
// slot later, so capacity is never parked), every client must finish
// byte-identical, the peer must have shed somebody, and the shed
// ordering must have protected the top-standing quartile completely.
//
// Breaker differential, on default Options: a manifest fetch with one
// peer blackholed must stay within 2x the no-fault baseline while the
// peer's circuit breaker opens; the next fetch while it is open must
// not dial the peer at all; after the fault heals and the cooldown
// lapses, a half-open probe must close the breaker again. A separate
// scenario wedges one peer's uplink to a trickle mid-chunk: the other
// peers' rungs finish every chunk, and a slow peer is not a failed one,
// so its breaker stays closed.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
)

func TestFlashCrowdShedsFreeRidersAndKeepsGoodput(t *testing.T) {
	seed := Seed(t, 41)
	ctx := testCtx(t)
	const (
		crowd      = 16
		maxStreams = 4 // 4x offered load
		capBps     = 256 << 10
		k          = 16
		pieceLen   = 2048
	)
	c := Start(t, seed, 0)

	// The hot peer is built by hand: shaped uplink, bounded admission,
	// a small stream burst so the token buckets cannot hide the cap,
	// and a fast realloc tick so handoffs re-divide capacity promptly.
	hot := c.startPeer("hot", 77, peer.Config{
		UploadBytesPerSec: capBps,
		StreamBurst:       4096,
		MaxStreams:        maxStreams,
		ReallocInterval:   50 * time.Millisecond,
	}).Node

	gen := c.SeedGeneration(ctx, 0xF1A5, k, pieceLen, k*pieceLen, k)

	// Standings spaced x2 apart — comfortably past the 1.1 preemption
	// margin — so the shed order is fully determined: client i outranks
	// everyone below it.
	ids := make([]*auth.Identity, crowd)
	fps := make([]string, crowd)
	for i := range ids {
		ids[i] = testIdentity(t, byte(100+i))
		fps[i] = auth.Fingerprint(ids[i].Public())
		hot.Ledger().Credit(fps[i], float64(uint64(1)<<i))
	}

	reg := metrics.NewRegistry()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		received uint64
		fetchErr = make([]error, crowd)
	)
	start := time.Now()
	for i := 0; i < crowd; i++ {
		cl := c.Client("u"+fmt.Sprint(i), ids[i], client.Options{})
		cl.Instrument(reg)
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			data, stats, err := cl.Fetch(ctx, client.FetchRequest{
				Peers:   []string{hot.Addr().String()},
				Params:  gen.Params,
				FileID:  gen.FileID,
				Secret:  gen.Secret,
				Digests: gen.Digests,
			})
			if err != nil {
				fetchErr[i] = err
				return
			}
			if !bytes.Equal(data, gen.Data) {
				fetchErr[i] = fmt.Errorf("client %d decoded different bytes", i)
				return
			}
			mu.Lock()
			for _, b := range stats.BytesFrom {
				received += b
			}
			mu.Unlock()
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range fetchErr {
		if err != nil {
			t.Fatalf("client %d (standing 2^%d): %v", i, i, err)
		}
	}

	// Utilization: everything that crossed the shaped uplink, over the
	// whole crowd's wall clock — handoff gaps between a shed and the
	// next RETRY_AFTER knock are the only way to lose it.
	goodput := float64(received) / elapsed.Seconds()
	if min := 0.9 * capBps; goodput < min {
		t.Errorf("goodput %.0f B/s over %v, want >= %.0f (90%% of the %d B/s cap)",
			goodput, elapsed, min, capBps)
	}

	st := hot.OverloadStats()
	if st.Sheds == 0 {
		t.Fatal("4x offered load produced zero sheds; admission control inert")
	}
	// Shed ordering: the top-standing quartile is never the victim —
	// the weakest active stream always outranks nobody above it.
	for i := crowd - crowd/4; i < crowd; i++ {
		if n := st.ShedsByClient[fps[i]]; n != 0 {
			t.Errorf("top-quartile client %d shed %d times, want 0", i, n)
		}
	}
	// And the clients saw the BUSY frames as typed sheds, not failures.
	if v := reg.Counter(client.MetricShedsObserved, "").Value(); v == 0 {
		t.Error("clients observed no BUSY sheds despite peer-side sheds")
	}
	t.Logf("crowd of %d done in %v: goodput %.0f B/s (cap %d), sheds %d (preempts %d)",
		crowd, elapsed, goodput, capBps, st.Sheds, st.Preempts)
}

// shareOverloadFile shares a multi-chunk file over the cluster's peers
// and returns the original bytes, the fetch handle, and the coding
// secret.
func shareOverloadFile(t *testing.T, ctx context.Context, c *Cluster,
	plan chunk.Plan, size int) ([]byte, *core.Handle, []byte) {
	t.Helper()
	sys, err := core.NewSystem(c.Owner, nil, core.WithPlan(plan),
		core.WithClientOptions(client.Options{Transport: c.Fabric.Host(HostUser)}))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("overload resilience "), size/20+1)[:size]
	addrs := make([]string, len(c.Peers))
	for i, p := range c.Peers {
		addrs[i] = p.Addr
	}
	res, err := sys.ShareFile(ctx, "overload.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	return data, &res.Handle, res.Secret
}

func TestBreakerGuardsFetchFromBlackholedPeerWithinTwiceBaseline(t *testing.T) {
	seed := Seed(t, 43)
	ctx := testCtx(t)
	const (
		peers    = 3
		linkRate = 128 << 10
		size     = 192 << 10 // 12 chunks of 16 KiB
	)
	c := Start(t, seed, peers)
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 1024, ChunkSize: 16 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, size)

	// Shape only the serving direction, after seeding, for both user
	// hosts, so baseline and faulted runs see identical links.
	for _, p := range c.Peers {
		for _, u := range []string{"ub", "uf"} {
			c.Fabric.SetLink(p.Host, u, netsim.LinkPolicy{
				BytesPerSec: linkRate,
				Burst:       16 << 10, // >= netsim's shaping segment
			})
		}
	}

	// The cooldown outlasts the faulted fetch's bound, so the fetch after
	// it starts while the breaker still holds the peer back.
	opts := client.Options{
		DialTimeout:      100 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  2500 * time.Millisecond,
	}
	base := c.Client("ub", testIdentity(t, 150), opts)
	got, baseStats, err := base.FetchFile(ctx, h.Peers, &h.Manifest, secret)
	if err != nil {
		t.Fatalf("baseline fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("baseline decode differs from original")
	}
	baseline := baseStats.Elapsed

	// Fault: peer0 vanishes. The dial fails within DialTimeout, the
	// breaker opens, and the remaining two peers carry the manifest.
	// The faulted client counts its dials to peer0.
	reg := metrics.NewRegistry()
	ct := &countingTransport{Transport: c.Fabric.Host("uf"), addr: c.Peers[0].Addr}
	fopts := opts
	fopts.Transport = ct
	faulted, err := client.NewWith(testIdentity(t, 151), nil, fopts)
	if err != nil {
		t.Fatal(err)
	}
	faulted.Instrument(reg)
	c.Fabric.Blackhole(c.Peers[0].Host)
	faultStart := time.Now()
	got, faultStats, err := faulted.FetchFile(ctx, h.Peers, &h.Manifest, secret)
	if err != nil {
		t.Fatalf("faulted fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("faulted decode differs from original")
	}
	// The 2x differential bound, plus a sub-second additive term
	// absorbing -race and loaded-CI noise (the throughput test's idiom):
	// losing one of three uplinks costs 1.5x in theory, and the
	// quarantined dial costs one DialTimeout, not a wedged fetch.
	bound := 2*baseline + 750*time.Millisecond
	if faultStats.Elapsed > bound {
		t.Errorf("faulted fetch took %v, want <= %v (baseline %v)",
			faultStats.Elapsed, bound, baseline)
	}
	if s := faulted.PeerHealth(c.Peers[0].Addr); s.Breaker != "open" {
		t.Fatalf("breaker %q after blackholed dial, want open", s.Breaker)
	}
	if v := reg.Counter(client.MetricBreakerOpens, "").Value(); v < 1 {
		t.Fatalf("breaker_opens_total = %d, want >= 1", v)
	}

	// While the breaker is open the peer gets no rung and no dial: the
	// next fetch runs on the other two alone.
	dials := ct.dials.Load()
	gatedStart := time.Now()
	got, _, err = faulted.FetchFile(ctx, h.Peers, &h.Manifest, secret)
	if err != nil {
		t.Fatalf("fetch behind the open breaker: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode behind the open breaker differs from original")
	}
	if gatedStart.Sub(faultStart) >= opts.BreakerCooldown {
		t.Fatalf("the faulted fetch outlasted the %v cooldown: nothing left to check", opts.BreakerCooldown)
	}
	if n := ct.dials.Load() - dials; n != 0 {
		t.Fatalf("%d dials to the quarantined peer, want 0", n)
	}

	// Heal, wait out the cooldown, refetch with the same client: a
	// half-open probe rides along the healthy rungs and its success
	// closes the breaker. The breaker opened before the faulted fetch
	// returned, so its cooldown has lapsed a cooldown after that.
	c.Fabric.Restore(c.Peers[0].Host)
	time.Sleep(time.Until(faultStart.Add(faultStats.Elapsed + opts.BreakerCooldown + 100*time.Millisecond)))
	got, _, err = faulted.FetchFile(ctx, h.Peers, &h.Manifest, secret)
	if err != nil {
		t.Fatalf("recovery fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovery decode differs from original")
	}
	if s := faulted.PeerHealth(c.Peers[0].Addr); s.Breaker != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", s.Breaker)
	}
	if v := reg.Counter(client.MetricBreakerProbes, "").Value(); v < 1 {
		t.Errorf("breaker_probes_total = %d, want >= 1", v)
	}
	if v := reg.Counter(client.MetricBreakerRecoveries, "").Value(); v < 1 {
		t.Errorf("breaker_recoveries_total = %d, want >= 1", v)
	}
	if v := reg.Gauge(client.MetricBreakerOpenCurrent, "").Value(); v != 0 {
		t.Errorf("breaker_open_current = %v after recovery, want 0", v)
	}
	t.Logf("baseline %v, faulted %v (bound %v), breaker open->gated->probe->closed",
		baseline, faultStats.Elapsed, bound)
}

// stalledBudget bounds a fetch whose first peer's uplink wedges to
// 50 B/s: the other two peers, unshaped, carry every chunk.
const stalledBudget = 5 * time.Second

func TestStalledPeerNeitherStallsFetchNorTripsBreaker(t *testing.T) {
	seed := Seed(t, 47)
	ctx := testCtx(t)
	c := Start(t, seed, 3)
	// 64 KiB chunks of 4 KiB pieces: each chunk far outsizes the
	// stalled link's burst, so the wedge always bites mid-chunk.
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 4096, ChunkSize: 64 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, 192<<10)

	// peer0's uplink to this user wedges to a trickle after one burst:
	// the session dials and handshakes fine, every chunk's rung on it
	// delivers a burst's worth of frames between them, and then starves.
	c.Fabric.SetLink(c.Peers[0].Host, "u2", netsim.LinkPolicy{
		BytesPerSec: 50,
		Burst:       16 << 10,
	})

	cl := c.Client("u2", testIdentity(t, 152), client.Options{})
	got, stats, err := cl.FetchFile(ctx, h.Peers, &h.Manifest, secret)
	if err != nil {
		t.Fatalf("fetch with a stalled peer: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode differs from original")
	}
	if stats.Elapsed > stalledBudget {
		t.Fatalf("fetch took %v despite two healthy peers, want <= %v", stats.Elapsed, stalledBudget)
	}
	if s := cl.PeerHealth(c.Peers[0].Addr); s.Breaker != "closed" || s.Failures != 0 {
		t.Fatalf("stalled peer's health %+v, want a closed breaker and no failures: slow is not failed", s)
	}
	t.Logf("fetched %d bytes in %v despite a 50 B/s peer", len(got), stats.Elapsed)
}
