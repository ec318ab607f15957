package client

// The mark behind the split (health.go) and the one ladder property the
// harness cannot reach from outside: a hedged client never gathers the
// evidence on its own — it runs too few streams per session — so the
// mark is planted here.

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

func splitRegistry() (*healthRegistry, []*peerLink) {
	var m clientMetrics
	h := newHealthRegistry(&m, Options{}.withDefaults())
	links := make([]*peerLink, 4)
	for i := range links {
		links[i] = &peerLink{addr: string(rune('a' + i))}
	}
	return h, links
}

func markAll(h *healthRegistry, links []*peerLink) {
	for _, l := range links {
		for i := 0; i < surplusStrikes; i++ {
			h.surplusVerdict(l.addr, true)
		}
	}
}

func TestMarkTakesStrikes(t *testing.T) {
	h, links := splitRegistry()
	addr := links[0].addr
	// A stall of the client leaves a backlog on every generation in
	// flight, a window's worth, and the generations after it are clean:
	// never a mark, however often it happens.
	for round := 0; round < 100; round++ {
		for i := 0; i < fetchFileStreams; i++ {
			h.surplusVerdict(addr, true)
		}
		for i := 0; i < fetchFileStreams; i++ {
			h.surplusVerdict(addr, false)
		}
	}
	if h.snapshot(addr).OutrunsStop {
		t.Fatal("a paced peer was marked by stalls a window long")
	}
	if limits := h.shares(links, 8); limits != nil {
		t.Fatalf("limits %v with no peer marked, want nil", limits)
	}
	// An unpaced peer outruns STOP on every generation but the odd one
	// it wins outright.
	for i := 0; i < 3*surplusStrikes && !h.snapshot(addr).OutrunsStop; i++ {
		h.surplusVerdict(addr, i%4 != 3)
	}
	if !h.snapshot(addr).OutrunsStop {
		t.Fatalf("not marked after %d generations of which three in four outran STOP", 3*surplusStrikes)
	}
	// A verdict still on its way from before the mark is not a probe's.
	h.surplusVerdict(addr, false)
	if !h.snapshot(addr).OutrunsStop {
		t.Fatal("a late verdict on an unsplit generation took the fresh mark away")
	}
}

func TestSharesSplitKAmongTheMarked(t *testing.T) {
	h, links := splitRegistry()
	markAll(h, links[:3])
	limits := h.shares(links, 8)
	if want := []uint32{3, 3, 3, 0}; !slices.Equal(limits, want) {
		t.Fatalf("limits %v for three marked peers of four and k = 8, want %v", limits, want)
	}
	markAll(h, links[3:])
	if limits, want := h.shares(links, 8), []uint32{2, 2, 2, 2}; !slices.Equal(limits, want) {
		t.Fatalf("limits %v for four marked peers and k = 8, want %v", limits, want)
	}
	if limits, want := h.shares(links[:1], 8), []uint32{8}; !slices.Equal(limits, want) {
		t.Fatalf("limits %v for one marked peer and k = 8, want %v", limits, want)
	}
}

func TestMarkClearsOnFailureShedAndRescue(t *testing.T) {
	for name, clear := range map[string]func(h *healthRegistry, addr string){
		"failure":      func(h *healthRegistry, addr string) { h.recordFailure(addr) },
		"shed":         func(h *healthRegistry, addr string) { h.recordShed(addr) },
		"second round": func(h *healthRegistry, addr string) { h.clearOutruns(addr) },
	} {
		h, links := splitRegistry()
		markAll(h, links)
		clear(h, links[1].addr)
		if h.snapshot(links[1].addr).OutrunsStop {
			t.Errorf("%s left the mark in place", name)
		}
		if limits, want := h.shares(links, 8), []uint32{3, 0, 3, 3}; !slices.Equal(limits, want) {
			t.Errorf("after a %s: limits %v, want %v", name, limits, want)
		}
	}
}

func TestMarkAgesInGenerations(t *testing.T) {
	h, links := splitRegistry()
	markAll(h, links)
	one := links[:1]
	// probe walks one peer through the rest of a period under shares
	// and returns the limits of its probe generation.
	probe := func() []uint32 {
		t.Helper()
		for gen := 1; gen < sharePeriod; gen++ {
			if limits := h.shares(one, 8); limits == nil || limits[0] != 8 {
				t.Fatalf("generation %d of the period: limits %v, want a share", gen, limits)
			}
		}
		return h.shares(one, 8)
	}
	// The probe asks for everything, outside the split, mark kept.
	if limits := probe(); limits != nil {
		t.Fatalf("generation %d is the probe, but limits are %v", sharePeriod, limits)
	}
	if !h.snapshot(one[0].addr).OutrunsStop {
		t.Fatal("the probe dropped the mark before its verdict")
	}
	// It outran STOP: the age starts over. The next one has no verdict
	// (its call ended first): another period under shares. The third
	// shows nothing, and the mark is gone.
	h.surplusVerdict(one[0].addr, true)
	if limits := probe(); limits != nil {
		t.Fatalf("second probe: limits %v", limits)
	}
	if limits := probe(); limits != nil {
		t.Fatalf("third probe, after one without a verdict: limits %v", limits)
	}
	h.surplusVerdict(one[0].addr, false)
	if limits := h.shares(one, 8); limits != nil || h.snapshot(one[0].addr).OutrunsStop {
		t.Fatalf("mark still in force after a probe that showed no surplus (limits %v)", limits)
	}
	// The other three were not touched by any of this.
	if limits, want := h.shares(links, 8), []uint32{0, 3, 3, 3}; !slices.Equal(limits, want) {
		t.Fatalf("limits %v, want %v", limits, want)
	}
}

// TestHedgedLadderNeverSplits: the hedged ladder needs all k from one
// peer. With both peers marked a split would ask the primary for k/2
// and walk to the second for the rest; unsplit, the second peer serves
// nothing.
func TestHedgedLadderNeverSplits(t *testing.T) {
	clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{52}, 32))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWith(clientID, nil, Options{Hedge: true, HedgeDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	secret := bytes.Repeat([]byte{9}, rlnc.SecretLen)
	data := bytes.Repeat([]byte("hedged, so never split "), 400)[:8192]
	share, err := chunk.BuildShare("h.bin", data, chunk.Plan{FieldBits: gf.Bits32, M: 256, ChunkSize: 8192}, 77, secret)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*peer.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{byte(53 + i)}, 32))
		if err != nil {
			t.Fatal(err)
		}
		n, err := peer.New(peer.Config{Identity: id, Store: store.NewMemory()})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		batches, err := share.BatchForPeer(i, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Disseminate(ctx, n.Addr().String(), batches[0]); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr().String())
		for v := 0; v < surplusStrikes; v++ {
			c.health.surplusVerdict(n.Addr().String(), true)
		}
	}

	got, _, err := c.FetchFile(ctx, addrs, &share.Manifest, secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded bytes differ from original")
	}
	served := 0
	for _, n := range nodes {
		if len(n.ServedBytes()) > 0 {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("%d peers served a hedged chunk between two marked peers, want the primary alone", served)
	}
}
