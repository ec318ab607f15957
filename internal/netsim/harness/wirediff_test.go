package harness

// The pooled, multiplexed read path under deterministic chaos on the
// netsim fabric: mid-stream connection cuts, per-link latency and
// asymmetric rate caps. However the streams are scheduled — every rung
// at once, a hedged ladder, or hand-driven PeerSessions — the decode
// must be byte-identical to the original, and every scenario asserts
// the wire.DefaultPool teardown invariants: all pooled frame buffers
// released (no leaks) and no double-releases, even on the failure
// paths the chaos forces. (The allocating read loop the client once
// kept as a differential baseline is gone; wire's differential of
// FrameReader against a reference decoder and rlnc's AddBytes-vs-Add
// one hold the component-level references.)

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/netsim"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// poolBaseline snapshots DefaultPool before a scenario. The harness
// shares one process-wide pool across tests, so the invariants are
// asserted as deltas against the snapshot.
func poolBaseline() wire.PoolStats { return wire.DefaultPool.Stats() }

// checkDefaultPool waits for in-flight server goroutines to release
// their buffers (stream teardown races the fetch returning) and then
// asserts the delta invariants: no net live buffers, no new
// double-releases.
func checkDefaultPool(t *testing.T, before wire.PoolStats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := wire.DefaultPool.Stats()
		if st.Live <= before.Live && st.DoubleReleases == before.DoubleReleases {
			return
		}
		if time.Now().After(deadline) {
			if st.Live > before.Live {
				t.Errorf("pool leak: %d live buffers at teardown (was %d)", st.Live, before.Live)
			}
			if st.DoubleReleases != before.DoubleReleases {
				t.Errorf("%d double-releases during scenario",
					st.DoubleReleases-before.DoubleReleases)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireDifferentialChaos fetches the same generation twice — once
// with every rung of the chunk ladder launched together, once hedged —
// while the fabric injects latency, an asymmetric rate cap, and a
// mid-stream cut on one peer. Both fetches must succeed (the two
// surviving peers jointly decode) and produce byte-identical output.
func TestWireDifferentialChaos(t *testing.T) {
	seed := Seed(t, 7788)
	ctx := testCtx(t)
	before := poolBaseline()
	c := Start(t, seed, 3)
	// 3 peers x 4 messages, k=8: any two peers jointly decode, so the
	// cut peer is survivable without redials.
	gen := c.SeedGeneration(ctx, 61, 8, 512, 4096, 4)

	c.Fabric.SetLink("peer0", HostUser, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
	c.Fabric.SetLink("peer1", HostUser, netsim.LinkPolicy{BytesPerSec: 512 << 10})
	c.Fabric.SetLink("peer2", HostUser, netsim.LinkPolicy{CutAfterBytes: 1200})

	addrs := c.Lookup(ctx, HostUser, gen.FileID)
	if len(addrs) != 3 {
		t.Fatalf("tracker returned %d peers, want 3", len(addrs))
	}

	fetch := func(opts client.Options) []byte {
		t.Helper()
		opts.PeerRetries = -1 // fixed dial sequence: same faults hit both ladders
		cl := c.UserClient(opts)
		data, _, err := cl.FetchGeneration(ctx, addrs, gen.Params, gen.FileID, gen.Secret, gen.Digests)
		if err != nil {
			t.Fatalf("fetch (hedge=%v) under chaos: %v", opts.Hedge, err)
		}
		return data
	}

	together := fetch(client.Options{})
	hedged := fetch(client.Options{Hedge: true, HedgeDelay: 20 * time.Millisecond})

	if !bytes.Equal(together, gen.Data) {
		t.Fatal("unhedged ladder decoded bytes differ from original")
	}
	if !bytes.Equal(hedged, together) {
		t.Fatal("hedged ladder output diverges from the unhedged one")
	}
	checkDefaultPool(t, before)
}

// TestWireMuxDifferentialChaos drives PeerSessions by hand under the
// same chaos, the way cmd/bench's stepwise fetch does: one session per
// peer feeds a shared pipeline, peer2's session is severed mid-stream,
// and the survivors complete the decode. The result must match the
// library's own fetch byte for byte, and the severed session must not
// leak pooled buffers.
func TestWireMuxDifferentialChaos(t *testing.T) {
	seed := Seed(t, 9911)
	ctx := testCtx(t)
	before := poolBaseline()
	c := Start(t, seed, 3)
	gen := c.SeedGeneration(ctx, 62, 8, 512, 4096, 4)

	c.Fabric.SetLink("peer0", HostUser, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
	c.Fabric.SetLink("peer1", HostUser, netsim.LinkPolicy{BytesPerSec: 512 << 10})
	c.Fabric.SetLink("peer2", HostUser, netsim.LinkPolicy{CutAfterBytes: 1200})

	addrs := c.Lookup(ctx, HostUser, gen.FileID)

	// Reference result through the library's read path.
	ref := c.UserClient(client.Options{PeerRetries: -1})
	want, _, err := ref.FetchGeneration(ctx, addrs, gen.Params, gen.FileID, gen.Secret, gen.Digests)
	if err != nil {
		t.Fatalf("reference fetch: %v", err)
	}

	// Hand-driven fetch: every peer streams into one pipeline over its
	// own session; the first session to fill the rank cancels the rest.
	cl := c.UserClient(client.Options{})
	pipe, err := rlnc.NewPipeline(gen.Params, gen.FileID, gen.Secret, gen.Digests, rlnc.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	fetchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, addr := range addrs {
		s, err := cl.NewPeerSession(ctx, addr)
		if err != nil {
			t.Fatalf("session to %s: %v", addr, err)
		}
		defer s.Close()
		wg.Add(1)
		go func(s *client.PeerSession) {
			defer wg.Done()
			// The severed session errors; survivors finish. Either way
			// the pipeline arbitrates, so per-session errors are not
			// fatal here.
			_ = s.Fetch(fetchCtx, gen.FileID, pipe, nil)
			if pipe.Done() {
				cancel()
			}
		}(s)
	}
	wg.Wait()
	if !pipe.Done() {
		t.Fatalf("hand-driven fetch rank %d < k=%d after all sessions returned", pipe.Rank(), gen.Params.K)
	}
	got, err := pipe.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hand-driven sessions diverge from the library fetch")
	}
	if !bytes.Equal(got, gen.Data) {
		t.Fatal("decoded bytes differ from original")
	}
	checkDefaultPool(t, before)
}

// TestWireDifferentialReplays pins determinism for the read path: the
// same fabric seed must reproduce the identical event log across two
// runs.
func TestWireDifferentialReplays(t *testing.T) {
	seed := Seed(t, 7788)
	run := func() ([]byte, string) {
		ctx := testCtx(t)
		c := Start(t, seed, 3)
		gen := c.SeedGeneration(ctx, 63, 8, 512, 4096, 4)
		// As in runPartitionFetch: the survivors alone hold k messages, so
		// without a head start for the victim whether its link is cut
		// before the decode completes — and so the event log — is a race.
		c.Fabric.SetLink("peer0", HostUser, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
		c.Fabric.SetLink("peer1", HostUser, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
		c.Fabric.SetLink("peer2", HostUser, netsim.LinkPolicy{CutAfterBytes: 1200})
		addrs := c.Lookup(ctx, HostUser, gen.FileID)
		cl := c.UserClient(client.Options{PeerRetries: -1})
		data, _, err := cl.FetchGeneration(ctx, addrs, gen.Params, gen.FileID, gen.Secret, gen.Digests)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		return data, c.Fabric.Events().Dump()
	}
	d1, e1 := run()
	d2, e2 := run()
	if !bytes.Equal(d1, d2) {
		t.Fatal("same seed decoded different bytes")
	}
	if e1 != e2 {
		t.Fatalf("same seed %d diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", seed, e1, e2)
	}
}
