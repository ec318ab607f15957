package rlnc_test

import (
	"math/rand"
	"testing"

	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// TestChunkSumScalarDispatch: a manifest's per-chunk sums are a file
// format, so a handle written on one arm must verify on every other.
// Sums recorded on the dispatched arm (held to crypto/md5 by chunk's
// TestSumMatchesDefinition) are recomputed and checked on every arm the
// host has, down to scalar, for K = 1…17 and a short last vector.
func TestChunkSumScalarDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type shared struct {
		m    chunk.Manifest
		data []byte
	}
	var shares []shared
	for k := 1; k <= 17; k++ {
		plan := chunk.Plan{FieldBits: gf.Bits32, M: 64, ChunkSize: k * 256}
		data := make([]byte, 3*plan.ChunkSize-9)
		rng.Read(data)
		share, err := chunk.BuildShare("arms.bin", data, plan, rng.Uint64(), []byte("sum-arms-secret"))
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, shared{share.Manifest, data})
	}
	rlnc.OnDigestArms(t, func(t *testing.T) {
		for _, s := range shares {
			for i, piece := range chunk.Split(s.data, s.m.Plan.ChunkSize) {
				info := s.m.Chunks[i]
				if got := info.SumOf(s.m.Plan, piece); got != info.Sum {
					t.Fatalf("k=%d chunk %d: recomputed sum %v, recorded %v", info.K, i, got, info.Sum)
				}
				if err := info.CheckSum(s.m.Plan, piece); err != nil {
					t.Fatalf("k=%d chunk %d: %v", info.K, i, err)
				}
			}
		}
	})
}
