package core_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/core"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

// TestSpotCheckCatchesSilentCorruption: a peer that keeps the right
// message inventory but the wrong bytes fails the spot-check and is
// debited; its honest neighbour is not.
func TestSpotCheckCatchesSilentCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, 2200) // 3 chunks under smallPlan
	rng.Read(data)

	sys, err := core.NewSystem(identity(t, 130), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.Memory, 2)
	fps := make([]string, 2)
	var addrs []string
	for i := range stores {
		stores[i] = store.NewMemory()
		id := identity(t, byte(131+i))
		fps[i] = id.Fingerprint()
		node, err := peer.New(peer.Config{Identity: id, Store: stores[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr().String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "precious.dat", data, addrs)
	if err != nil {
		t.Fatal(err)
	}

	opts := core.SpotCheckOptions{Sample: 4, Seed: 5}
	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllPassed() {
		t.Fatalf("fresh share failed spot-check: %+v", report.FailedChunks)
	}
	// 2 peers × 3 chunks, every obligation probed.
	if len(report.Verdicts) != 6 {
		t.Fatalf("got %d verdicts, want 6", len(report.Verdicts))
	}
	if len(report.Debits) != 0 {
		t.Errorf("honest round assessed debits: %v", report.Debits)
	}

	// Peer 0 silently corrupts every message of chunk 1: inventory
	// counts stay perfect, the bytes are garbage.
	corruptInPlace(t, stores[0], res.Handle.Manifest.Chunks[1].FileID)
	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.AllPassed() {
		t.Fatal("spot-check missed the corruption")
	}
	failed := report.FailedChunks[addrs[0]]
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("FailedChunks[%s] = %v, want [1]", addrs[0], failed)
	}
	if len(report.FailedChunks) != 1 {
		t.Errorf("honest peer flagged: %v", report.FailedChunks)
	}
	if report.Debits[fps[0]] == 0 {
		t.Error("corrupting peer was not debited")
	}
	if report.Debits[fps[1]] != 0 {
		t.Errorf("honest peer debited: %v", report.Debits)
	}
	if report.Stats.Failed != 1 || report.Stats.Passed != 5 {
		t.Errorf("stats = %+v", report.Stats)
	}
}
