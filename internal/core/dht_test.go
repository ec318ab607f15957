package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/discovery"
)

func startDHTNode(t *testing.T) *dht.Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := dht.NewNode(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// dhtDiscovery resolves and announces through node, once: no
// re-announce loop.
func dhtDiscovery(t *testing.T, node *dht.Node) discovery.Discovery {
	t.Helper()
	d, err := discovery.NewDHT(node, discovery.DHTOptions{ReannounceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
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
	if err := owner.AnnounceHandleVia(ctx, dhtDiscovery(t, dhtNodes[1]), &res.Handle, 0); err != nil {
		t.Fatal(err)
	}

	// A remote user on a different DHT node resolves and fetches with
	// only manifest + secret.
	remote, err := core.NewSystem(identity(t, 165), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := remote.FetchFileVia(ctx, dhtDiscovery(t, dhtNodes[4]), &res.Handle.Manifest, res.Secret)
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
	_, _, err = sys.FetchFileVia(ctx, dhtDiscovery(t, node), share, secret)
	if !errors.Is(err, dht.ErrNotFound) {
		t.Errorf("unknown key fetch error = %v, want ErrNotFound", err)
	}
}

func TestAnnounceHandleDHTValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 171), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AnnounceHandleVia(context.Background(), dhtDiscovery(t, startDHTNode(t)), nil, 0); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil handle error = %v", err)
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
