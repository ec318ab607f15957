package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/discovery"
	"asymshare/internal/tracker"
)

func startTracker(t *testing.T) *tracker.Server {
	t.Helper()
	s := tracker.NewServer(0)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// trackerDiscovery resolves and announces through the tracker at addr.
func trackerDiscovery(t *testing.T, addr string) discovery.Discovery {
	t.Helper()
	d, err := discovery.NewTracker(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnnounceAndFetchViaTracker(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 2100)
	rng.Read(data)

	sys, err := core.NewSystem(identity(t, 90), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := byte(0); i < 2; i++ {
		addrs = append(addrs, startPeer(t, 91+i).Addr().String())
	}
	trk := startTracker(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	res, err := sys.ShareFile(ctx, "tracked.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AnnounceHandleVia(ctx, trackerDiscovery(t, trk.Addr().String()), &res.Handle, 0); err != nil {
		t.Fatal(err)
	}
	// Every chunk must be resolvable.
	for _, info := range res.Handle.Manifest.Chunks {
		got, err := tracker.Lookup(ctx, nil, trk.Addr().String(), info.FileID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("lookup(%d) = %v", info.FileID, got)
		}
	}

	// A "remote" user: fresh system, no peer list — only manifest,
	// secret and the tracker address.
	remote, err := core.NewSystem(identity(t, 95), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := remote.FetchFileVia(ctx, trackerDiscovery(t, trk.Addr().String()),
		&res.Handle.Manifest, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tracker-resolved fetch mismatch")
	}
	if stats.Innovative == 0 {
		t.Error("no innovative messages recorded")
	}
}

func TestFetchViaTrackerUnknownFile(t *testing.T) {
	trk := startTracker(t)
	sys, err := core.NewSystem(identity(t, 96), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// A manifest that was never announced resolves to zero peers.
	secret := bytes.Repeat([]byte{7}, 32)
	share, err := chunk.BuildShare("ghost", make([]byte, 500), smallPlan(), 777, secret)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sys.FetchFileVia(ctx, trackerDiscovery(t, trk.Addr().String()), &share.Manifest, secret)
	if !errors.Is(err, client.ErrNoPeers) {
		t.Errorf("unannounced fetch error = %v, want ErrNoPeers", err)
	}
}

func TestAnnounceHandleValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 97), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := trackerDiscovery(t, "x")
	if err := sys.AnnounceHandleVia(context.Background(), d, nil, 0); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil handle error = %v", err)
	}
	if err := sys.AnnounceHandleVia(context.Background(), d, &core.Handle{}, 0); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("empty handle error = %v", err)
	}
}
