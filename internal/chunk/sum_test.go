package chunk

// The per-chunk Sum as a file format: held to its definition by
// crypto/md5 alone, shown to cover every vector of every chunk, and
// gated at 0 allocations. (That the lanes and the scalar arm agree on it
// is rlnc's TestChunkSumScalarDispatch, where the arms can be switched.)

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// refSum is the definition (DESIGN.md §5) with nothing of this
// repository's in it: MD5 over the K digests MD5(file-id ‖ j ‖ X_j),
// both identifiers big-endian, X_j the j-th vecBytes of data, cut short
// or empty where data ends.
func refSum(plan Plan, c ChunkInfo, data []byte) rlnc.Digest {
	vecBytes := plan.M * int(plan.FieldBits) / 8
	all := md5.New()
	for j := 0; j < c.K; j++ {
		lo := min(j*vecBytes, len(data))
		hi := min(lo+vecBytes, len(data))
		var hdr [16]byte
		binary.BigEndian.PutUint64(hdr[0:], c.FileID)
		binary.BigEndian.PutUint64(hdr[8:], uint64(j))
		d := md5.Sum(append(hdr[:], data[lo:hi]...))
		all.Write(d[:])
	}
	var sum rlnc.Digest
	all.Sum(sum[:0])
	return sum
}

// TestSumMatchesDefinition: at all three field widths, for every K from
// 1 to 17 (scalar, short lane groups, one full group, two and a
// remainder), with the last vector full, one byte short and one byte
// long, and for a one-byte file, BuildShare records refSum and CheckSum
// accepts the chunk.
func TestSumMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, bits := range []uint{gf.Bits8, gf.Bits16, gf.Bits32} {
		for k := 1; k <= 17; k++ {
			plan := Plan{FieldBits: bits, M: 96 * 8 / int(bits), ChunkSize: k * 96} // 96-byte vectors
			for _, size := range []int{
				2 * plan.ChunkSize,        // two full chunks
				plan.ChunkSize + k*96 - 1, // the file's last vector one byte short
				plan.ChunkSize + 1,        // ... and one byte long: k = 1
				1,
			} {
				data := make([]byte, size)
				rng.Read(data)
				share, err := BuildShare("sum.bin", data, plan, rng.Uint64(), testSecret())
				if err != nil {
					t.Fatal(err)
				}
				for i, piece := range Split(data, plan.ChunkSize) {
					info := share.Manifest.Chunks[i]
					if want := refSum(plan, info, piece); info.Sum != want {
						t.Fatalf("GF(2^%d) k=%d size %d chunk %d (k=%d, %d bytes): Sum %v, the definition gives %v",
							bits, k, size, i, info.K, len(piece), info.Sum, want)
					}
					if err := info.CheckSum(plan, piece); err != nil {
						t.Fatalf("GF(2^%d) k=%d size %d chunk %d: %v", bits, k, size, i, err)
					}
				}
			}
		}
	}
	// The shipped plan: one chunk is one full group of eight 128 KiB vectors.
	data := make([]byte, DefaultChunkSize)
	rng.Read(data)
	info := ChunkInfo{FileID: 0xC0FFEE, DataLen: len(data), K: 8}
	if got, want := info.SumOf(DefaultPlan(), data), refSum(DefaultPlan(), info, data); got != want {
		t.Fatalf("default plan: Sum %v, the definition gives %v", got, want)
	}
}

// TestSumCoversEveryVector: one byte flipped in the first, a middle and
// the last vector of any chunk — the short last chunk's short last
// vector included — or one bit of any Sum, and Assemble returns
// ErrBadManifest and no data. So does CheckSum for a chunk of another
// length, or of more bytes than its K vectors hold.
func TestSumCoversEveryVector(t *testing.T) {
	plan := Plan{FieldBits: gf.Bits32, M: 16, ChunkSize: 8 * 64} // k = 8 vectors of 64 bytes
	data := make([]byte, 3*plan.ChunkSize+5*64+9)                // last chunk: k = 6, a 9-byte last vector
	rand.New(rand.NewSource(24)).Read(data)
	share, err := BuildShare("cover.bin", data, plan, 70, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	m := &share.Manifest
	refused := func(what string, m *Manifest, pieces [][]byte) {
		t.Helper()
		if got, err := Assemble(m, pieces); !errors.Is(err, ErrBadManifest) || got != nil {
			t.Fatalf("%s: Assemble = (%d bytes, %v), want (nil, ErrBadManifest)", what, len(got), err)
		}
	}
	for c, info := range m.Chunks {
		last := info.DataLen - 1
		for _, off := range []int{0, 63, (info.K / 2) * 64, last - last%64, last} {
			bad := bytes.Clone(data)
			bad[c*plan.ChunkSize+off] ^= 0x10
			refused("flipped byte", m, Split(bad, plan.ChunkSize))
		}
		for _, bit := range []int{0, 77, 127} {
			tampered := *m
			tampered.Chunks = append([]ChunkInfo(nil), m.Chunks...)
			tampered.Chunks[c].Sum[bit/8] ^= 1 << (bit % 8)
			refused("flipped sum bit", &tampered, Split(data, plan.ChunkSize))
		}
	}
	if got, err := Assemble(m, Split(data, plan.ChunkSize)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("control: err %v, identical %v", err, bytes.Equal(got, data))
	}

	info := m.Chunks[0]
	if err := info.CheckSum(plan, data[:plan.ChunkSize-1]); !errors.Is(err, ErrBadManifest) {
		t.Errorf("chunk one byte short: %v", err)
	}
	// A manifest claiming fewer vectors than the bytes need would leave
	// the rest unhashed: refused whatever the sum says.
	info.K = 7
	info.Sum = info.SumOf(plan, data[:plan.ChunkSize])
	if err := info.CheckSum(plan, data[:plan.ChunkSize]); !errors.Is(err, ErrBadManifest) {
		t.Errorf("chunk longer than its k vectors: %v", err)
	}
}

// TestCheckSumSteadyStateAllocs: verifying a decoded chunk — eight
// messages on the stack, one DigestBatch, one MD5 over their digests —
// allocates nothing, with a full group, two groups and a remainder, and
// a short last vector.
func TestCheckSumSteadyStateAllocs(t *testing.T) {
	for _, k := range []int{8, 17, 3} {
		plan := Plan{FieldBits: gf.Bits32, M: 1024, ChunkSize: k * 4096}
		data := make([]byte, plan.ChunkSize-5)
		rand.New(rand.NewSource(25)).Read(data)
		info := ChunkInfo{FileID: 9, DataLen: len(data), K: k}
		info.Sum = info.SumOf(plan, data)
		var err error
		if avg := testing.AllocsPerRun(50, func() { err = info.CheckSum(plan, data) }); avg != 0 || err != nil {
			t.Fatalf("k=%d: CheckSum allocates %.1f times per chunk (err %v), want 0", k, avg, err)
		}
	}
}
