package core

// streamShare from the inside: the batch slot's allocation gate.

import (
	"math/rand"
	"testing"

	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// TestBatchSlotMintSteadyStateAllocs: once a slot and an encoder's
// scratch are warm, minting a batch — ids, k encodes, one DigestBatch —
// allocates nothing.
func TestBatchSlotMintSteadyStateAllocs(t *testing.T) {
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 1024, ChunkSize: 8 * 4096} // k = 8, the lanes' group
	data := make([]byte, 2*plan.ChunkSize)
	rand.New(rand.NewSource(1)).Read(data)
	share, err := chunk.BuildShare("t.bin", data, plan, 500, []byte("stream-share-secret"))
	if err != nil {
		t.Fatal(err)
	}
	p := share.Encoder(0).Params()
	slot := newBatchSlot(p.K, p.ChunkBytes())
	rank := 0
	mint := func() {
		if err := slot.mint(rank%2, share.Encoder(rank%2), rank%3); err != nil {
			t.Fatal(err)
		}
		rank++
	}
	for i := 0; i < 6; i++ {
		mint()
	}
	if avg := testing.AllocsPerRun(30, mint); avg != 0 {
		t.Fatalf("batchSlot.mint allocates %.1f times per batch, want 0", avg)
	}
	want := make([]rlnc.Digest, len(slot.msgs))
	for j, m := range slot.msgs {
		want[j] = m.Digest()
	}
	for j := range want {
		if slot.digests[j] != want[j] {
			t.Fatalf("slot digest %d is not the message's", j)
		}
	}
}
