package core_test

// ShareFileGossip + FetchFileVia: the home seeds its co-located gossip
// engine, rumor exchange carries the generations to a storage peer's
// store, and a remote user fetches byte-identical data resolving that
// peer through the Discovery seam alone.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/gossip"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

// staticDiscovery resolves every file-id to a fixed peer set.
type staticDiscovery struct {
	mu    sync.Mutex
	addrs map[uint64][]string
}

func (d *staticDiscovery) Announce(ctx context.Context, fileID uint64, addr string, ttl time.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.addrs == nil {
		d.addrs = make(map[uint64][]string)
	}
	d.addrs[fileID] = append(d.addrs[fileID], addr)
	return nil
}

func (d *staticDiscovery) Lookup(ctx context.Context, fileID uint64) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.addrs[fileID]...), nil
}

func (d *staticDiscovery) Close() error { return nil }

func startGossipEngine(t *testing.T, st store.Store, cfg gossip.Config) *gossip.Engine {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Advertise = ln.Addr().String()
	cfg.Store = st
	e, err := gossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestShareFileGossipFetchVia(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 2100)
	rng.Read(data)

	sys, err := core.NewSystem(identity(t, 120), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}

	// A storage peer whose store is fed by its gossip engine; it
	// announces itself through discovery as generations arrive.
	disc := &staticDiscovery{}
	storeB := store.NewMemory()
	peerB, err := peer.New(peer.Config{Identity: identity(t, 121), Store: storeB})
	if err != nil {
		t.Fatal(err)
	}
	if err := peerB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peerB.Close() })
	engB := startGossipEngine(t, storeB, gossip.Config{
		Announce: func(fileID uint64) {
			_ = disc.Announce(context.Background(), fileID, peerB.Addr().String(), 0)
		},
	})

	// The home: its engine shares the store minted by ShareFileGossip.
	storeA := store.NewMemory()
	engA := startGossipEngine(t, storeA, gossip.Config{})

	res, err := sys.ShareFileGossip(ctx, "rumor.bin", data, engA, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent == 0 {
		t.Fatal("gossip share seeded no messages")
	}
	for i, piece := range chunk.Split(data, res.Handle.Manifest.Plan.ChunkSize) {
		if info := res.Handle.Manifest.Chunks[i]; !info.HasSum() || info.CheckSum(res.Handle.Manifest.Plan, piece) != nil {
			t.Errorf("gossip share publishes sum %v for chunk %d, not its plaintext's", info.Sum, i)
		}
	}

	// One exchange per generation carries the full-rank seed batch over.
	for _, info := range res.Handle.Manifest.Chunks {
		if _, err := engA.Exchange(ctx, engB.Addr(), info.FileID); err != nil {
			t.Fatalf("exchange chunk %d: %v", info.FileID, err)
		}
		if got, want := storeB.Count(info.FileID), storeA.Count(info.FileID); got != want {
			t.Fatalf("chunk %d: storage peer holds %d/%d messages", info.FileID, got, want)
		}
	}

	// A remote user resolves the storage peer purely through discovery.
	remote, err := core.NewSystem(identity(t, 122), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := remote.FetchFileVia(ctx, disc, &res.Handle.Manifest, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("gossip-disseminated fetch mismatch")
	}
	if stats.Innovative == 0 {
		t.Error("no innovative messages recorded")
	}
}
