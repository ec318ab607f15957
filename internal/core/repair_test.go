package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asymshare/internal/core"
	"asymshare/internal/peer"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// fullCheck samples every message of every batch, as Repair does.
var fullCheck = core.SpotCheckOptions{Sample: wire.MaxAuditSample}

// repairFixture shares 3 chunks of data (under smallPlan) to two
// peers and returns the stores the test injects damage into.
func repairFixture(t *testing.T, ctx context.Context, seed int64, b byte) (*core.System, *core.ShareResult, []byte, []*store.Memory, []string) {
	t.Helper()
	data := make([]byte, 2200)
	rand.New(rand.NewSource(seed)).Read(data)
	sys, err := core.NewSystem(identity(t, b), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.Memory, 2)
	var addrs []string
	for i := range stores {
		stores[i] = store.NewMemory()
		node, err := peer.New(peer.Config{Identity: identity(t, b+1+byte(i)), Store: stores[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr().String())
	}
	res, err := sys.ShareFile(ctx, "precious.dat", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res, data, stores, addrs
}

// corruptInPlace flips a byte of every message st holds for fileID,
// keeping the message ids and count the peer reports.
func corruptInPlace(t *testing.T, st *store.Memory, fileID uint64) {
	t.Helper()
	msgs, err := st.Messages(fileID)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		bad := m.Clone()
		bad.Payload[0] ^= 0xFF
		if err := st.Put(bad); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAuditAndRepair(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sys, res, data, stores, addrs := repairFixture(t, ctx, 21, 120)

	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, fullCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllPassed() || len(report.Verdicts) != 2*3 {
		t.Fatalf("fresh share: %d batches checked, failed %v; want 6, none", len(report.Verdicts), report.FailedChunks)
	}

	// Disaster: peer 0 loses one generation entirely.
	if err := stores[0].Drop(res.Handle.Manifest.Chunks[1].FileID); err != nil {
		t.Fatal(err)
	}
	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, fullCheck)
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.FailedChunks[addrs[0]]; len(failed) != 1 || failed[0] != 1 || len(report.FailedChunks) != 1 {
		t.Fatalf("FailedChunks = %v, want chunk 1 on %s only", report.FailedChunks, addrs[0])
	}

	// Repair regenerates and re-uploads exactly the lost batch.
	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err != nil {
		t.Fatal(err)
	}
	if k := res.Handle.Manifest.Chunks[1].K; n != k {
		t.Fatalf("repair uploaded %d messages, want the lost batch's %d", n, k)
	}
	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, fullCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllPassed() {
		t.Fatalf("still failing after repair: %v", report.FailedChunks)
	}

	// A second repair is a no-op.
	n, err = sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("idempotent repair uploaded %d messages", n)
	}

	// And the file still fetches, now again from both peers.
	got, _, err := sys.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch after repair mismatch")
	}
}

// TestRepairResendsBatchCorruptedInPlace: a peer keeps every message id
// of a batch, so the count it would report is intact, but the bytes are
// garbage. Repair re-sends exactly that batch, and a full spot-check
// passes after.
func TestRepairResendsBatchCorruptedInPlace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sys, res, data, stores, _ := repairFixture(t, ctx, 22, 125)

	victim := res.Handle.Manifest.Chunks[1]
	corruptInPlace(t, stores[0], victim.FileID)
	if n := stores[0].Count(victim.FileID); n != victim.K {
		t.Fatalf("corruption changed the stored count to %d, want %d", n, victim.K)
	}

	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != victim.K {
		t.Fatalf("repair uploaded %d messages, want the corrupted batch's %d", n, victim.K)
	}
	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, fullCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllPassed() {
		t.Fatalf("full spot-check after repair failed: %v", report.FailedChunks)
	}
}

// TestRepairSkipsUnreachableHolder: with one holder down, Repair still
// re-sends the batch the live holder lost, and then fails with an error
// naming the holder it could not reach.
func TestRepairSkipsUnreachableHolder(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	data := make([]byte, 2200) // 3 chunks under smallPlan
	rand.New(rand.NewSource(23)).Read(data)
	sys, err := core.NewSystem(identity(t, 135), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	gone, _ := startPeerOn(t, 136)
	live, st := startPeerOn(t, 137)
	addrs := []string{gone.Addr().String(), live.Addr().String()}
	res, err := sys.ShareFile(ctx, "halfdown.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	victim := res.Handle.Manifest.Chunks[1]
	if err := st.Drop(victim.FileID); err != nil {
		t.Fatal(err)
	}
	gone.Close()

	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err == nil || !strings.Contains(err.Error(), addrs[0]) {
		t.Fatalf("repair with %s down: err = %v, want one naming it", addrs[0], err)
	}
	if n != victim.K {
		t.Fatalf("repair uploaded %d messages, want the lost batch's %d", n, victim.K)
	}
	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, fullCheck)
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.FailedChunks[addrs[1]]; len(failed) != 0 {
		t.Fatalf("live holder still fails chunks %v after repair", failed)
	}
}

func TestAuditRepairValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 130), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.SpotCheck(ctx, nil, nil, core.SpotCheckOptions{}); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil handle spot-check error = %v", err)
	}
	if _, err := sys.Repair(ctx, nil, nil, nil); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil handle repair error = %v", err)
	}
	h := &core.Handle{Peers: []string{"x"}}
	h.Manifest.TotalSize = 10
	if _, err := sys.Repair(ctx, h, nil, make([]byte, 5)); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("size mismatch repair error = %v", err)
	}
}
