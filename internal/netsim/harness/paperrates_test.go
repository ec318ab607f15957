package harness

// Eq. (2) on the live stack at the paper's own link rates (Sec. V:
// uplinks of 256/512/512/1024 kbps). The allocator's inputs are the
// capacity, the requesting set and the receipt ledger — nothing else;
// Theorem 1's floor is proved for exactly that rule. Both scenarios
// fail with a per-requester demand estimate in front of it: the first
// took 4 s then 64 s, the second split 0.24/0.76.

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
)

// TestPaperRatesRepeatFetch: four peers at 32/64/64/128 KiB/s, the
// default plan, 2 MiB, fetched twice in a row by one identity. A
// requester's earlier fetch must not cost it bandwidth on the next one:
// the second takes about as long as the first.
func TestPaperRatesRepeatFetch(t *testing.T) {
	seed := Seed(t, 53)
	ctx := testCtx(t)
	c := Start(t, seed, 0)
	for i, kib := range []float64{32, 64, 64, 128} {
		c.startPeer("uplink"+strconv.Itoa(i), byte(10+i), peer.Config{UploadBytesPerSec: kib * 1024})
	}
	data, h, secret := shareOverloadFile(t, ctx, c, chunk.DefaultPlan(), 2<<20)

	cl := c.Client("reader", testIdentity(t, 160), client.Options{})
	fetch := func(limit time.Duration) time.Duration {
		ctx, cancel := context.WithTimeout(ctx, limit)
		defer cancel()
		got, stats, err := cl.FetchFile(ctx, h.Peers, &h.Manifest, secret)
		if err != nil {
			t.Fatalf("fetch within %v: %v", limit, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("decode differs from original")
		}
		return stats.Elapsed
	}
	first := fetch(30 * time.Second)
	second := fetch(15 * time.Second)
	if second > 2*first {
		t.Errorf("second fetch took %v, first %v: a repeat fetch was throttled", second, first)
	}
	t.Logf("2 MiB over 288 KiB/s of uplinks: %v, then %v", first, second)
}

// grantLog is the paper's rule plus a record of what it granted each
// time both requesters were asking.
type grantLog struct {
	a, b fairshare.ID

	mu     sync.Mutex
	shares [][2]float64 // a's and b's fraction of capacity, per tick
}

func (g *grantLog) Allocate(req fairshare.AllocRequest) fairshare.Grants {
	out := fairshare.PairwiseProportional{}.Allocate(req)
	if len(out) == 2 {
		g.mu.Lock()
		g.shares = append(g.shares, [2]float64{out.Rate(g.a) / req.Capacity, out.Rate(g.b) / req.Capacity})
		g.mu.Unlock()
	}
	return out
}

// TestPaperRatesGrantsIgnoreDrainRate pins "no demand term": two
// requesters credited 3:1 on one shaped peer, the stronger one behind a
// link that drains a sixth of its grant. Every realloc tick with both
// present grants 0.75/0.25 of capacity — what the slow reader leaves on
// the table is its own to waste, not the peer's to hand to the other.
func TestPaperRatesGrantsIgnoreDrainRate(t *testing.T) {
	seed := Seed(t, 59)
	ctx := testCtx(t)
	const (
		capBps   = 512 << 10
		k        = 16
		pieceLen = 12 << 10 // 192 KiB: ~1.5 s at b's 128 KiB/s
	)
	ida, idb := testIdentity(t, 161), testIdentity(t, 162)
	log := &grantLog{a: auth.Fingerprint(ida.Public()), b: auth.Fingerprint(idb.Public())}
	c := Start(t, seed, 0)
	hot := c.startPeer("hot", 77, peer.Config{
		UploadBytesPerSec: capBps,
		StreamBurst:       4096,
		ReallocInterval:   50 * time.Millisecond,
		Allocator:         log,
	})
	hot.Node.Ledger().Credit(log.a, 3000)
	hot.Node.Ledger().Credit(log.b, 1000)
	gen := c.SeedGeneration(ctx, 0xEC2, k, pieceLen, k*pieceLen, k)
	c.Fabric.SetLink("hot", "ua", netsim.LinkPolicy{BytesPerSec: 64 << 10, Burst: 16 << 10})

	req := client.FetchRequest{Peers: []string{hot.Addr}, Params: gen.Params,
		FileID: gen.FileID, Secret: gen.Secret, Digests: gen.Digests}
	slowCtx, stopSlow := context.WithCancel(ctx)
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		c.Client("ua", ida, client.Options{}).Fetch(slowCtx, req) // cut short below
	}()
	if _, _, err := c.Client("ub", idb, client.Options{}).Fetch(ctx, req); err != nil {
		t.Fatalf("b's fetch: %v", err)
	}
	stopSlow()
	<-slowDone

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.shares) < 10 {
		t.Fatalf("only %d ticks with both requesters present; the scenario did not overlap", len(log.shares))
	}
	for i, s := range log.shares {
		if math.Abs(s[0]-0.75) > 1e-9 || math.Abs(s[1]-0.25) > 1e-9 {
			t.Fatalf("tick %d of %d granted %.3f/%.3f of capacity, want 0.750/0.250", i, len(log.shares), s[0], s[1])
		}
	}
}
