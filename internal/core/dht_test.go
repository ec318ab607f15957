package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/netsim/harness"
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

// TestAnnounceAndFetchViaDHT: the storage peers a file is shared onto
// announce themselves as its holders, with no announce from the owner,
// and a remote user resolves and fetches with only manifest + secret.
func TestAnnounceAndFetchViaDHT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]byte, 2500)
	rng.Read(data)

	// A small DHT: 5 storage peers joined through the first.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dhtNodes := make([]*dht.Node, 5)
	for i := range dhtNodes {
		dhtNodes[i] = startDHTNode(t)
	}
	for i := 1; i < len(dhtNodes); i++ {
		if err := dhtNodes[i].Join(ctx, dhtNodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// The share lands on two of them.
	owner, err := core.NewSystem(identity(t, 160), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{dhtNodes[1].Addr(), dhtNodes[2].Addr()}
	sort.Strings(addrs)
	res, err := owner.ShareFile(ctx, "dht.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}

	// Each holder announces every chunk on its first PUT.
	if err := harness.AwaitHolders(ctx, dhtNodes[4], &res.Handle); err != nil {
		t.Fatal(err)
	}

	// A remote user on a different DHT node resolves and fetches with
	// only manifest + secret.
	remote, err := core.NewSystem(identity(t, 165), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := remote.FetchFileVia(ctx, dhtNodes[4], &res.Handle.Manifest, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("DHT-resolved fetch mismatch")
	}
	if stats.Innovative == 0 {
		t.Error("stats empty")
	}
}

func TestFetchViaDHTUnknown(t *testing.T) {
	node := startDHTNode(t)
	sys, err := core.NewSystem(identity(t, 170), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	secret := bytes.Repeat([]byte{8}, 32)
	share, err := buildUnsharedManifest(secret)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sys.FetchFileVia(ctx, node, share, secret)
	if !errors.Is(err, dht.ErrNotFound) || !errors.Is(err, client.ErrNoPeers) {
		t.Errorf("unknown key fetch error = %v, want ErrNotFound and ErrNoPeers", err)
	}
}

// buildUnsharedManifest creates a valid manifest whose chunks were
// never announced anywhere.
func buildUnsharedManifest(secret []byte) (*chunk.Manifest, error) {
	share, err := chunk.BuildShare("ghost", make([]byte, 400), smallPlan(), 4242, secret)
	if err != nil {
		return nil, err
	}
	return &share.Manifest, nil
}
