package harness

// Capacity-estimation scenario: a storage peer with no configured
// upload capacity sits behind an asymmetric rate-capped netsim link
// and serves a generation twice. Its online estimator must discover
// the link cap from flush timings alone — the paper's allocation rule
// divides *measured* capacity, so an estimate that misses the real
// link rate misallocates every requester downstream. The acceptance
// bound is 15%: tight enough to catch shaped-throughput feedback or
// burst-buffer inflation, loose enough for scheduler noise under
// -race on CI.

import (
	"bytes"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/estimate"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

func TestEstimatorConvergesToLinkRate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second shaped transfer")
	}
	seed := Seed(t, 4101)
	ctx := testCtx(t)
	const (
		k        = 64
		pieceLen = 64 << 10 // 4 MiB generation
		perPeer  = 64       // a full batch: decodable from this one peer
		peerRate = 4 << 20  // bytes/sec uplink cap
		// Each fetch serves the generation in one burst — one sample
		// train — and the estimator answers only after three samples.
		fetches = 3
	)
	c := Start(t, seed, 0)

	// Boot the serving peer by hand: estimator, no configured capacity.
	est := estimate.NewHistory()
	st := store.NewMemory()
	node, err := peer.New(peer.Config{
		Identity:  testIdentity(t, 1),
		Store:     st,
		Estimator: est,
		Transport: c.Fabric.Host("peer0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(":0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	c.Peers = append(c.Peers, &Peer{Host: "peer0", Node: node, Store: st, Addr: node.Addr().String()})

	gen := c.SeedGeneration(ctx, 41, k, pieceLen, k*pieceLen, perPeer)
	if est.Estimate() != 0 {
		t.Fatalf("estimate = %v before any capped serving", est.Estimate())
	}

	// Cap the serving direction only — the asymmetric channel. Burst
	// stays well under one sample train so token credit cannot inflate
	// the timing past the acceptance bound.
	c.Fabric.SetLink("peer0", HostUser, netsim.LinkPolicy{
		Latency:     300 * time.Microsecond,
		BytesPerSec: peerRate,
		Burst:       32 << 10,
	})
	c.Fabric.SetLink(HostUser, "peer0", netsim.LinkPolicy{Latency: 300 * time.Microsecond})

	cl := c.UserClient(client.Options{})
	for i := 0; i < fetches; i++ {
		data, _, err := cl.Fetch(ctx, client.FetchRequest{
			Peers:   []string{node.Addr().String()},
			Params:  gen.Params,
			FileID:  gen.FileID,
			Secret:  gen.Secret,
			Digests: gen.Digests,
		})
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(data, gen.Data) {
			t.Fatal("decoded bytes differ from original")
		}
	}

	got := est.Estimate()
	if got == 0 {
		t.Fatal("estimator still warming up after 8 MiB of shaped serving")
	}
	if ratio := got / peerRate; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("estimate %.0f B/s vs link cap %d B/s (ratio %.3f), want within 15%%",
			got, int(peerRate), ratio)
	}
	t.Logf("estimate %.0f B/s vs link cap %d B/s (%.1f%% off)",
		got, int(peerRate), 100*(got/peerRate-1))
}
