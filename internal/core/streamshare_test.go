package core

// streamShare from the inside: the batch slot's allocation gate.

import (
	"bytes"
	"math/rand"
	"testing"

	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// TestBatchSlotMintSteadyStateAllocs: once a slot and an encoder's
// scratch are warm, minting a batch — ids, k encodes, one DigestBatch —
// allocates nothing, and neither does turning it into an update's
// deltas.
func TestBatchSlotMintSteadyStateAllocs(t *testing.T) {
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 1024, ChunkSize: 8 * 4096} // k = 8, the lanes' group
	data := make([]byte, 2*plan.ChunkSize)
	rand.New(rand.NewSource(1)).Read(data)
	secret := []byte("stream-share-secret")
	share, err := chunk.BuildShare("t.bin", data, plan, 500, secret)
	if err != nil {
		t.Fatal(err)
	}
	// The old version differs from data in chunk 0 only, so chunk 1's
	// deltas are all zero.
	oldData := bytes.Clone(data)
	oldData[5] ^= 0xFF
	oldPieces, newPieces := chunk.Split(oldData, plan.ChunkSize), chunk.Split(data, plan.ChunkSize)
	deltas := make([]*rlnc.DeltaEncoder, share.NumChunks())
	for c := range deltas {
		info := share.Manifest.Chunks[c]
		if deltas[c], err = rlnc.NewDeltaEncoder(share.Encoder(c).Params(), info.FileID, secret, oldPieces[c], newPieces[c]); err != nil {
			t.Fatal(err)
		}
	}
	for _, patch := range []bool{false, true} {
		p := share.Encoder(0).Params()
		slot := newBatchSlot(p.K, p.ChunkBytes())
		rank := 0
		mint := func() {
			if err := slot.mint(rank%2, share.Encoder(rank%2), rank%3); err != nil {
				t.Fatal(err)
			}
			if patch {
				slot.toDeltas(deltas[rank%2])
			}
			rank++
		}
		for i := 0; i < 6; i++ {
			mint()
		}
		if avg := testing.AllocsPerRun(30, mint); avg != 0 {
			t.Fatalf("patch=%v: batchSlot.mint allocates %.1f times per batch, want 0", patch, avg)
		}
		if rank%2 != 1 {
			mint() // end on chunk 0, whose deltas are not all zero
		}
		if len(slot.msgs) != p.K || slot.patch != patch {
			t.Fatalf("patch=%v: slot holds %d messages, patch=%v; want k=%d", patch, len(slot.msgs), slot.patch, p.K)
		}
		want := make([]rlnc.Digest, len(slot.msgs))
		for j, m := range slot.msgs {
			want[j] = m.Digest()
			if patch {
				if !bytes.Equal(m.Payload, deltas[0].Delta(m.MessageID).Payload) {
					t.Fatalf("slot message %d is not its delta", j)
				}
				want[j] = share.Encoder(0).Message(m.MessageID).Digest()
			}
		}
		for j := range want {
			if slot.digests[j] != want[j] {
				t.Fatalf("patch=%v: slot digest %d is not the new version's message's", patch, j)
			}
		}
		if patch {
			mint() // chunk 1: unchanged, so nothing to send
			if len(slot.msgs) != 0 {
				t.Fatalf("an unchanged chunk left %d deltas in the slot", len(slot.msgs))
			}
		}
	}
}
