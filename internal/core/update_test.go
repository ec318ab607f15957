package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/rlnc"
)

func TestUpdateFilePropagatesEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	oldData := make([]byte, 3000) // 3 chunks under smallPlan (1024)
	rng.Read(oldData)

	sys, err := core.NewSystem(identity(t, 100), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := byte(0); i < 2; i++ {
		addrs = append(addrs, startPeer(t, 101+i).Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "doc.txt", oldData, addrs)
	if err != nil {
		t.Fatal(err)
	}

	sumsBefore := sums(&res.Handle.Manifest)

	// Edit bytes inside chunk 1 only.
	newData := bytes.Clone(oldData)
	copy(newData[1500:1550], bytes.Repeat([]byte{0xAB}, 50))

	upd, err := sys.UpdateFile(ctx, &res.Handle, res.Secret, oldData, newData)
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.ChangedChunks) != 1 || upd.ChangedChunks[0] != 1 {
		t.Fatalf("ChangedChunks = %v, want [1]", upd.ChangedChunks)
	}
	if upd.MessagesPatched == 0 || upd.BytesSent == 0 {
		t.Errorf("update stats: %+v", upd)
	}
	// Delta traffic covers only the changed chunk.
	if upd.BytesSent >= res.BytesSent {
		t.Errorf("delta bytes %d not smaller than full share %d", upd.BytesSent, res.BytesSent)
	}

	// Untouched chunks keep their sums byte for byte; the changed one
	// has what a fresh share of the new version would publish.
	m := &res.Handle.Manifest
	fresh, err := chunk.BuildShare("doc.txt", newData, m.Plan, m.Chunks[0].FileID, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Chunks {
		if i != 1 && m.Chunks[i].Sum != sumsBefore[i] {
			t.Errorf("untouched chunk %d: sum moved from %v to %v", i, sumsBefore[i], m.Chunks[i].Sum)
		}
		if m.Chunks[i].Sum != fresh.Manifest.Chunks[i].Sum {
			t.Errorf("chunk %d: sum %v, a fresh share of the new version has %v", i, m.Chunks[i].Sum, fresh.Manifest.Chunks[i].Sum)
		}
	}
	if m.Chunks[1].Sum == sumsBefore[1] {
		t.Error("changed chunk kept its sum")
	}

	got, stats, err := sys.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("fetch after update is not the new version")
	}
	if stats.Rejected != 0 {
		t.Errorf("rejected = %d; refreshed digests should verify", stats.Rejected)
	}
}

// sums copies the manifest's per-chunk sums.
func sums(m *chunk.Manifest) []rlnc.Digest {
	out := make([]rlnc.Digest, len(m.Chunks))
	for i, c := range m.Chunks {
		out[i] = c.Sum
	}
	return out
}

func TestUpdateFileNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 900)
	rng.Read(data)
	sys, err := core.NewSystem(identity(t, 110), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	addr := startPeer(t, 111).Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "same.txt", data, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := sys.UpdateFile(ctx, &res.Handle, res.Secret, data, bytes.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.ChangedChunks) != 0 || upd.MessagesPatched != 0 || upd.BytesSent != 0 {
		t.Errorf("no-op update did work: %+v", upd)
	}
}

func TestUpdateFileValidation(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 112), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.UpdateFile(ctx, nil, nil, nil, nil); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("nil handle error = %v", err)
	}
	h := &core.Handle{Peers: []string{"x"}}
	h.Manifest.TotalSize = 10
	if _, err := sys.UpdateFile(ctx, h, nil, make([]byte, 5), make([]byte, 5)); !errors.Is(err, core.ErrBadHandle) {
		t.Errorf("size mismatch error = %v", err)
	}
	if _, err := sys.UpdateFile(ctx, h, nil, make([]byte, 10), make([]byte, 11)); !errors.Is(err, chunk.ErrSizeChanged) {
		t.Errorf("resize error = %v", err)
	}
}

func TestChangedChunks(t *testing.T) {
	oldData := make([]byte, 2500)
	newData := bytes.Clone(oldData)
	newData[0] ^= 1    // chunk 0
	newData[2400] ^= 1 // chunk 2
	got, err := chunk.ChangedChunks(oldData, newData, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ChangedChunks = %v", got)
	}
	if _, err := chunk.ChangedChunks(oldData, newData[:10], 1024); !errors.Is(err, chunk.ErrSizeChanged) {
		t.Errorf("resize error = %v", err)
	}
	if _, err := chunk.ChangedChunks(oldData, newData, 0); err == nil {
		t.Error("zero chunk size accepted")
	}
	same, err := chunk.ChangedChunks(oldData, oldData, 512)
	if err != nil || len(same) != 0 {
		t.Errorf("identical ChangedChunks = %v, %v", same, err)
	}
}

// TestUpdateFileFailedPatchKeepsContentDigest: a chunk's content digest
// — its Sum — changes only once every peer has acknowledged that chunk's
// PATCHes. A peer that hangs up on its PATCH — first in line, or after
// another peer has already been patched — fails the update and leaves
// the chunk the sum it had, the old version's, which one peer at least
// still holds; per-message digests are refreshed peer by peer, so only
// an acknowledged peer's have moved.
func TestUpdateFileFailedPatchKeepsContentDigest(t *testing.T) {
	for _, failing := range []int{0, 1} {
		rng := rand.New(rand.NewSource(13))
		oldData := make([]byte, 3000)
		rng.Read(oldData)
		sys, err := core.NewSystem(identity(t, 120), nil, core.WithPlan(smallPlan()))
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{startPeer(t, 121).Addr().String(), startPeer(t, 122).Addr().String()}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := sys.ShareFile(ctx, "doc.txt", oldData, addrs)
		if err != nil {
			t.Fatal(err)
		}
		h := &res.Handle
		sumsBefore := sums(&h.Manifest)
		for i, piece := range chunk.Split(oldData, h.Manifest.Plan.ChunkSize) {
			if info := h.Manifest.Chunks[i]; info.CheckSum(h.Manifest.Plan, piece) != nil {
				t.Fatalf("shared handle has sum %v for chunk %d", info.Sum, i)
			}
		}
		before := make(map[uint64]string)
		for id, d := range h.Manifest.Chunks[1].Digests {
			before[id] = d.String()
		}

		newData := bytes.Clone(oldData)
		copy(newData[1500:1550], bytes.Repeat([]byte{0xCD}, 50))
		h.Peers[failing], _ = fakePeer(t, 123, 0, false) // shakes hands, then hangs up

		if _, err := sys.UpdateFile(ctx, h, res.Secret, oldData, newData); err == nil {
			t.Fatalf("peer %d hung up on its PATCH and the update succeeded", failing)
		}
		for i, sum := range sums(&h.Manifest) {
			if sum != sumsBefore[i] {
				t.Errorf("peer %d failed: chunk %d's sum moved to %v, the version every peer was shared has %v",
					failing, i, sum, sumsBefore[i])
			}
		}
		// Both peers are patched side by side, so whether the healthy one
		// was acknowledged before the failure cancelled it is a race: its
		// digests (id>>32 is a message's rank) all moved or none did. The
		// failing peer's never do.
		moved := 0
		for id, d := range h.Manifest.Chunks[1].Digests {
			if before[id] == d.String() {
				continue
			}
			if int(id>>32) == failing {
				t.Errorf("peer %d hung up on its PATCH yet the digest of its message %#x was refreshed", failing, id)
			}
			moved++
		}
		if k := h.Manifest.Chunks[1].K; moved != 0 && moved != k {
			t.Errorf("%d of the healthy peer's %d message digests were refreshed, want all or none", moved, k)
		}
	}
}
