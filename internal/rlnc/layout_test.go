package rlnc

import (
	"testing"

	"asymshare/internal/gf"
)

// TestBatchRankLayout pins the batch-rank layout where the encoder
// defines it: every id BatchForPeer(r, k) mints maps back to r through
// BatchRank — also the ids past a dependent row the scan skipped —
// RankDigests over a generation's digest map returns exactly batch r's
// ids, and MaxBatchRank the highest rank minted. GF(2^4) makes skipped
// rows common enough that some file id in the sweep has one.
func TestBatchRankLayout(t *testing.T) {
	ranks := []int{0, 1, 7}
	skipped := false
	for fileID := uint64(1); !skipped && fileID <= 64; fileID++ {
		for _, k := range []int{8, 32} {
			p := mustParams(t, gf.MustNew(gf.Bits4), k, 16, k*8)
			enc, err := NewEncoder(p, fileID, testSecret(), make([]byte, p.DataLen))
			if err != nil {
				t.Fatal(err)
			}
			all := make(map[uint64]Digest)
			batches := make(map[int][]uint64, len(ranks))
			for _, r := range ranks {
				batch, err := enc.BatchForPeer(r, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, msg := range batch {
					if got := BatchRank(msg.MessageID); got != r {
						t.Fatalf("file %d k=%d: id %#x of batch %d maps to rank %d", fileID, k, msg.MessageID, r, got)
					}
					all[msg.MessageID] = msg.Digest()
					batches[r] = append(batches[r], msg.MessageID)
				}
				if last := batch[len(batch)-1].MessageID; last != uint64(r)*batchStride+uint64(k-1) {
					skipped = true
				}
			}
			for _, r := range ranks {
				got := RankDigests(all, r)
				if len(got) != len(batches[r]) {
					t.Fatalf("file %d k=%d: RankDigests(%d) has %d ids, want %d", fileID, k, r, len(got), len(batches[r]))
				}
				for _, id := range batches[r] {
					if got[id] != all[id] {
						t.Fatalf("file %d k=%d: RankDigests(%d) lacks id %#x", fileID, k, r, id)
					}
				}
			}
			if got := RankDigests(all, 2); len(got) != 0 {
				t.Fatalf("file %d k=%d: unminted rank 2 has %d digests", fileID, k, len(got))
			}
			if got := MaxBatchRank(all); got != 7 {
				t.Fatalf("file %d k=%d: MaxBatchRank = %d, want 7", fileID, k, got)
			}
		}
	}
	if !skipped {
		t.Fatal("no batch in the sweep skipped a dependent row; the sweep no longer covers that case")
	}
	if got := MaxBatchRank(nil); got != -1 {
		t.Fatalf("MaxBatchRank of no digests = %d, want -1", got)
	}
}
