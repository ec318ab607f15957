package harness

// High-bandwidth scenario for the parallel decode path: eight peers
// behind low-latency, rate-capped links jointly serve a 1 MiB
// generation. The paper's core claim is that parallel downloads fill
// the user's wide download pipe beyond any single peer's upload
// capacity; this test pins that end to end by bounding the fetch
// wall-clock against the fabric's link-limited optimum.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/netsim"
)

func TestHighBandwidthFetchApproachesLinkOptimum(t *testing.T) {
	seed := Seed(t, 2026)
	ctx := testCtx(t)
	const (
		peers     = 8
		k         = 32
		pieceLen  = 32 << 10 // 32 KiB chunks over GF(2^8): 1 MiB generation
		perPeer   = 8
		peerRate  = 512 << 10 // bytes/sec upload per peer
		linkDelay = 300 * time.Microsecond
	)
	c := Start(t, seed, peers)
	gen := c.SeedGeneration(ctx, 77, k, pieceLen, k*pieceLen, perPeer)

	// Shape the serving links only after seeding so dissemination runs
	// at fabric speed. Every peer uploads at most peerRate; the user's
	// aggregate download is peers*peerRate — the asymmetric-channel
	// setting where only parallelism can fill the downlink.
	for _, p := range c.Peers {
		c.Fabric.SetLink(p.Host, HostUser, netsim.LinkPolicy{
			Latency:     linkDelay,
			BytesPerSec: peerRate,
			Burst:       pieceLen, // >= netsim's 16 KiB shaping segment
		})
		c.Fabric.SetLink(HostUser, p.Host, netsim.LinkPolicy{Latency: linkDelay})
	}

	addrs := gen.Holders
	cl := c.UserClient(client.Options{})
	data, stats, err := cl.Fetch(ctx, client.FetchRequest{
		Peers:   addrs,
		Params:  gen.Params,
		FileID:  gen.FileID,
		Secret:  gen.Secret,
		Digests: gen.Digests,
	})
	if err != nil {
		t.Fatalf("high-bandwidth fetch: %v", err)
	}
	if !bytes.Equal(data, gen.Data) {
		t.Fatal("decoded bytes differ from original")
	}

	// Link-limited optimum: k messages' worth of wire bytes through the
	// aggregate download rate. The factor covers handshake round trips,
	// the q/(q-1) redundancy overhead, and scheduling slop; the
	// additive second absorbs -race and loaded-CI noise. A client that
	// serialized on one peer's uplink would alone need ~peers times the
	// optimum, so the bound still proves parallel draw.
	wireBytes := float64(k * (gen.Params.ChunkBytes() + 16))
	optimum := time.Duration(wireBytes / (peers * peerRate) * float64(time.Second))
	bound := 3*optimum + time.Second
	if stats.Elapsed > bound {
		t.Fatalf("fetch took %v, want <= %v (link-limited optimum %v)",
			stats.Elapsed, bound, optimum)
	}
	// The decode must actually have drawn from many peers: each holds
	// only perPeer messages, so at least k/perPeer uplinks contributed.
	if got := len(stats.BytesFrom); got < k/perPeer {
		t.Fatalf("only %d peers contributed bytes, want >= %d", got, k/perPeer)
	}
	if stats.Innovative != k {
		t.Errorf("innovative = %d, want %d", stats.Innovative, k)
	}
	t.Log(fmt.Sprintf("fetched %d bytes in %v (optimum %v, bound %v, %d peers)",
		len(data), stats.Elapsed, optimum, bound, len(stats.BytesFrom)))
}
