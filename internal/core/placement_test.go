package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/peer"
	"asymshare/internal/ring"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

func TestShareFilePlacedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 4100) // 5 chunks under smallPlan (1024)
	rng.Read(data)

	sys, err := core.NewSystem(identity(t, 140), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	stores := make(map[string]*store.Memory)
	var addrs []string
	for i := byte(0); i < 5; i++ {
		st := store.NewMemory()
		node, err := peer.New(peer.Config{Identity: identity(t, 141+i), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr().String())
		stores[node.Addr().String()] = st
	}
	r, err := ring.New(addrs, 32)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const replicas = 2
	res, err := sys.ShareFilePlaced(ctx, "placed.bin", data, r, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Handle.ChunkPeers) != 5 {
		t.Fatalf("ChunkPeers = %d entries", len(res.Handle.ChunkPeers))
	}
	for i, piece := range chunk.Split(data, res.Handle.Manifest.Plan.ChunkSize) {
		if info := res.Handle.Manifest.Chunks[i]; info.CheckSum(res.Handle.Manifest.Plan, piece) != nil {
			t.Errorf("placed share publishes sum %v for chunk %d, not its plaintext's", info.Sum, i)
		}
	}
	for i, cp := range res.Handle.ChunkPeers {
		if len(cp) != replicas {
			t.Errorf("chunk %d placed on %d peers", i, len(cp))
		}
	}
	// Each peer stores only its share: total stored messages equal
	// replicas * sum(k), not peers * sum(k).
	wantMsgs := 0
	for _, info := range res.Handle.Manifest.Chunks {
		wantMsgs += replicas * info.K
	}
	gotMsgs := 0
	for _, st := range stores {
		gotMsgs += st.TotalMessages()
	}
	if gotMsgs != wantMsgs {
		t.Errorf("stored messages = %d, want %d", gotMsgs, wantMsgs)
	}

	// Fetch resolves the placement transparently.
	got, stats, err := sys.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("placed fetch mismatch")
	}
	if stats.Rejected != 0 {
		t.Errorf("rejected = %d", stats.Rejected)
	}

	// The spot-check understands placement: every placed batch passes...
	full := core.SpotCheckOptions{Sample: wire.MaxAuditSample}
	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, full)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllPassed() {
		t.Fatalf("placed share failed its spot-check: %v", report.FailedChunks)
	}
	if len(report.Verdicts) != 5*replicas {
		t.Errorf("%d batches checked, want %d", len(report.Verdicts), 5*replicas)
	}

	// ...and repair restores a responsible peer after data loss.
	victim := res.Handle.ChunkPeers[0][0]
	if err := stores[victim].Drop(res.Handle.Manifest.Chunks[0].FileID); err != nil {
		t.Fatal(err)
	}
	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, full)
	if err != nil {
		t.Fatal(err)
	}
	if report.AllPassed() {
		t.Fatal("spot-check missed placed loss")
	}
	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Handle.Manifest.Chunks[0].K {
		t.Fatalf("repair uploaded %d messages, want the lost batch's %d", n, res.Handle.Manifest.Chunks[0].K)
	}
	report, err = sys.SpotCheck(ctx, &res.Handle, res.Secret, full)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllPassed() {
		t.Fatalf("still failing after placed repair: %v", report.FailedChunks)
	}

	// The handle (with placement) survives serialization.
	blob, err := json.Marshal(res.Handle)
	if err != nil {
		t.Fatal(err)
	}
	var h core.Handle
	if err := json.Unmarshal(blob, &h); err != nil {
		t.Fatal(err)
	}
	got, _, err = sys.FetchFile(ctx, &h, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch via serialized placed handle mismatch")
	}

	// An update patches each changed chunk on its holders, at the ranks
	// they were placed with, and the new version fetches.
	newData := bytes.Clone(data)
	newData[10] ^= 0xFF   // chunk 0
	newData[3500] ^= 0xFF // chunk 3
	upd, err := sys.UpdateFile(ctx, &res.Handle, res.Secret, data, newData)
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.ChangedChunks) != 2 {
		t.Errorf("ChangedChunks = %v, want [0 3]", upd.ChangedChunks)
	}
	got, stats, err = sys.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) || stats.Rejected != 0 {
		t.Fatalf("fetch after placed update: identical=%v, %d rejected", bytes.Equal(got, newData), stats.Rejected)
	}
}

func TestShareFilePlacedValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 150), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ShareFilePlaced(context.Background(), "x", []byte{1}, nil, 2); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil ring error = %v", err)
	}
}

func TestPeersForChunkFallback(t *testing.T) {
	h := &core.Handle{Peers: []string{"a", "b"}}
	if got := h.PeersForChunk(0); len(got) != 2 {
		t.Errorf("flat fallback = %v", got)
	}
	h.ChunkPeers = [][]string{{"c"}}
	if got := h.PeersForChunk(0); len(got) != 1 || got[0] != "c" {
		t.Errorf("placed = %v", got)
	}
	if got := h.PeersForChunk(5); len(got) != 2 {
		t.Errorf("out-of-range falls back = %v", got)
	}
}
