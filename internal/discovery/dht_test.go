package discovery

// The DHT wrapper over real TCP nodes, each hosted on a storage peer:
// an announced record resolves from every node, and an empty address
// is refused.

import (
	"context"
	"errors"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/dht"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

// startDHTNode starts a storage peer on loopback and returns the DHT
// node it answers for on its own port.
func startDHTNode(t *testing.T) *dht.Node {
	t.Helper()
	id, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{Identity: id, Store: store.NewMemory(), DHT: &dht.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p.DHT()
}

func TestDHTDiscoveryAnnounceLookup(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, b := startDHTNode(t), startDHTNode(t)
	if err := b.Join(ctx, a.Addr()); err != nil {
		t.Fatal(err)
	}

	d := NewDHT(a)
	if _, err := d.Lookup(ctx, 42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup of unannounced id = %v, want ErrNotFound", err)
	}
	if err := d.Announce(ctx, 42, "peer:1", time.Minute); err != nil {
		t.Fatal(err)
	}
	addrs, err := d.Lookup(ctx, 42)
	if err != nil || len(addrs) != 1 || addrs[0] != "peer:1" {
		t.Fatalf("lookup = %v, %v; want [peer:1]", addrs, err)
	}

	// The other node resolves it too, through its own wrapper.
	addrs, err = NewDHT(b).Lookup(ctx, 42)
	if err != nil || len(addrs) != 1 {
		t.Fatalf("remote lookup = %v, %v; want [peer:1]", addrs, err)
	}

	if err := d.Announce(ctx, 42, "", time.Minute); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("empty-addr announce = %v, want ErrBadRecord", err)
	}
}
