package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
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

func TestAnnounceAndFetchViaDHT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]byte, 2500)
	rng.Read(data)

	// A small DHT: 5 nodes joined through the first.
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

	// Storage peers and the share.
	owner, err := core.NewSystem(identity(t, 160), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := byte(0); i < 2; i++ {
		addrs = append(addrs, startPeer(t, 161+i).Addr().String())
	}
	res, err := owner.ShareFile(ctx, "dht.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.AnnounceHandleVia(ctx, dhtNodes[1], &res.Handle, 0); err != nil {
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

func TestAnnounceHandleDHTValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 171), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AnnounceHandleVia(context.Background(), startDHTNode(t), nil, 0); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil handle error = %v", err)
	}
}

func TestAnnounceHandleValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 97), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AnnounceHandleVia(context.Background(), startDHTNode(t), &core.Handle{}, 0); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("empty handle error = %v", err)
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
