package client

// Regression for the hedged scheduler's all-quarantined corner: when
// every session is inside a lapsed breaker cooldown, order() returns
// probeFrom == 0 and the first probe candidate doubles as the primary
// stream. The probe start-up loop must then skip that rung — launching
// it a second time opened a duplicate stream for the same file-id on
// the same session, whose register failure was classified as a real
// failure and re-opened the breaker (with a doubled cooldown) right
// after the chunk had in fact been served successfully.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

func TestHedgedAllQuarantinedLaunchesPrimaryOnce(t *testing.T) {
	peerID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{41}, 32))
	if err != nil {
		t.Fatal(err)
	}
	clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	n, err := peer.New(peer.Config{Identity: peerID, Store: store.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	addr := n.Addr().String()

	secret := make([]byte, rlnc.SecretLen)
	for i := range secret {
		secret[i] = byte(i + 3)
	}
	data := bytes.Repeat([]byte("all quarantined "), 60)[:900] // one chunk
	share, err := chunk.BuildShare("q.bin", data,
		chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}, 1000, secret)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewWith(clientID, nil, Options{
		Hedge:            true,
		BreakerThreshold: 1,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	batches, err := share.BatchForPeer(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var flat []*rlnc.Message
	for _, b := range batches {
		flat = append(flat, b...)
	}
	if err := c.Disseminate(ctx, addr, flat); err != nil {
		t.Fatal(err)
	}

	set := c.newSessionSet(ctx)
	defer set.close()
	links := set.open([]string{addr})

	// Quarantine the peer with an already-lapsed cooldown so the ladder
	// consists solely of probe candidates.
	c.health.mu.Lock()
	p := c.health.peerLocked(addr)
	p.state = breakerOpen
	p.cooldown = 50 * time.Millisecond
	p.openUntil = time.Now().Add(-time.Millisecond)
	c.health.mu.Unlock()

	if ladder, probeFrom, coolFrom := c.health.order(links, 0); len(ladder) != 1 || probeFrom != 0 || coolFrom != 1 {
		t.Fatalf("sanity: ladder len %d probeFrom %d coolFrom %d, want 1, 0 and 1", len(ladder), probeFrom, coolFrom)
	}

	info := share.Manifest.Chunks[0]
	params, err := info.Params(share.Manifest.Plan)
	if err != nil {
		t.Fatal(err)
	}
	pl := c.newPipelines(1)
	defer pl.close()
	piece, _, err := c.fetchChunk(ctx, links, 0,
		FetchRequest{Params: params, FileID: info.FileID, Secret: secret, Digests: info.Digests}, pl, nil)
	if err != nil {
		t.Fatalf("all-quarantined hedged fetch: %v", err)
	}
	got, err := chunk.Assemble(&share.Manifest, [][]byte{piece})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded bytes differ from original")
	}

	// The single (primary) stream succeeded, so the breaker must be
	// closed and no spurious failure recorded. The double launch used to
	// fail register for the duplicate stream, count a failure, and
	// re-open the breaker with a doubled cooldown.
	if s := c.PeerHealth(addr); s.Breaker != "closed" || s.Failures != 0 {
		t.Fatalf("health after fetch = %+v, want closed breaker with 0 failures", s)
	}
	// And the probe loop must not have claimed the rung it already
	// launched as the primary: a claimed probe slot here is exactly the
	// duplicate launch (whichever of the two streams lost the register
	// race, the loser's failure was either recorded or silently
	// orphaned — both wrong).
	if v := reg.Counter(MetricBreakerProbes, "").Value(); v != 0 {
		t.Fatalf("breaker_probes_total = %d, want 0 (primary rung probed twice)", v)
	}
}
