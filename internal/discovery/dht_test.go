package discovery

// The DHT wrapper over real TCP nodes, each hosted on a storage peer: records are soft state, so the
// refresher must keep an announced record resolvable past its TTL, and
// Close must let it age out.

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

	d, err := NewDHT(a, DHTOptions{ReannounceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

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
	db, err := NewDHT(b, DHTOptions{ReannounceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addrs, err = db.Lookup(ctx, 42)
	if err != nil || len(addrs) != 1 {
		t.Fatalf("remote lookup = %v, %v; want [peer:1]", addrs, err)
	}

	if err := d.Announce(ctx, 42, "", time.Minute); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("empty-addr announce = %v, want ErrBadRecord", err)
	}
}

func TestDHTDiscoveryReannounceOutlivesTTL(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	a, b := startDHTNode(t), startDHTNode(t)
	if err := b.Join(ctx, a.Addr()); err != nil {
		t.Fatal(err)
	}

	d, err := NewDHT(a, DHTOptions{ReannounceInterval: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// A 1s TTL record checked at t=2s has expired unless the refresher
	// re-announced it in between.
	if err := d.Announce(ctx, 42, "peer:1", time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	db, err := NewDHT(b, DHTOptions{ReannounceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addrs, err := db.Lookup(ctx, 42)
	if err != nil || len(addrs) != 1 {
		t.Fatalf("lookup past TTL = %v, %v; want refresher to have kept [peer:1] alive", addrs, err)
	}

	// After Close the refresher stops and the record ages out.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if _, err := db.Lookup(ctx, 42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after refresher stopped = %v, want ErrNotFound", err)
	}
}
