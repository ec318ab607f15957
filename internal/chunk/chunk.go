// Package chunk splits large files into independently-encoded 1 MB
// generations, per Sec. III-D of the paper: "we propose to overcome this
// problem by dividing large files into 1 MB chunks and then encoding
// each chunk as a separate file", which bounds k (and hence decoding
// cost) and lets audio/video content be streamed chunk by chunk. The
// user keeps a Manifest describing how the chunks fit together, together
// with the per-message MD5 digests of Sec. III-C.
package chunk

import (
	"crypto/md5"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// DefaultChunkSize is the generation size recommended by the paper.
const DefaultChunkSize = 1 << 20

var (
	// ErrBadManifest is returned when a manifest fails validation.
	ErrBadManifest = errors.New("chunk: invalid manifest")

	// ErrChunkMissing is returned when assembling with a gap.
	ErrChunkMissing = errors.New("chunk: missing chunk data")
)

// Plan describes how one file is cut into generations and how each
// generation is coded.
type Plan struct {
	FieldBits uint // symbol width p
	M         int  // symbols per chunk-vector
	ChunkSize int  // bytes per generation (last one may be shorter)
}

// DefaultPlan returns the paper's example configuration: q = 2^32,
// m = 32768, 1 MB generations, giving k = 8.
func DefaultPlan() Plan {
	return Plan{FieldBits: gf.Bits32, M: 1 << 15, ChunkSize: DefaultChunkSize}
}

// Validate checks the plan invariants.
func (p Plan) Validate() error {
	if _, err := gf.New(p.FieldBits); err != nil {
		return fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if p.M <= 0 || p.ChunkSize <= 0 {
		return fmt.Errorf("%w: m=%d chunkSize=%d", ErrBadManifest, p.M, p.ChunkSize)
	}
	if p.M*int(p.FieldBits)%8 != 0 {
		return fmt.Errorf("%w: unaligned chunk vector", ErrBadManifest)
	}
	return nil
}

// Split cuts data into generation-sized pieces. The returned slices
// alias data.
func Split(data []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 {
		return nil
	}
	if len(data) == 0 {
		return [][]byte{{}}
	}
	out := make([][]byte, 0, (len(data)+chunkSize-1)/chunkSize)
	for off := 0; off < len(data); off += chunkSize {
		end := min(off+chunkSize, len(data))
		out = append(out, data[off:end])
	}
	return out
}

// NewFileID draws a random 64-bit file identifier.
func NewFileID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("chunk: file id: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

// NewSecret draws a fresh coding secret.
func NewSecret() ([]byte, error) {
	s := make([]byte, rlnc.SecretLen)
	if _, err := rand.Read(s); err != nil {
		return nil, fmt.Errorf("chunk: secret: %w", err)
	}
	return s, nil
}

// ChunkInfo records the coding geometry and authentication digests of
// one generation.
type ChunkInfo struct {
	FileID  uint64 `json:"fileId"`
	DataLen int    `json:"dataLen"`
	K       int    `json:"k"`

	// Sum is the end-to-end digest of the chunk's plaintext (SumOf);
	// all zero in a manifest written before chunks carried one.
	Sum rlnc.Digest `json:"sum"`

	Digests map[uint64]rlnc.Digest `json:"digests,omitempty"`
}

// sumGroup is how many source vectors SumOf digests per DigestBatch
// call: one full pass of the digest lanes.
const sumGroup = 8

// SumOf computes the chunk's end-to-end digest over data, its
// plaintext, taken as the coding takes it — K source vectors of the
// plan's vector length, the last one as short as the data leaves it
// (never padded, empty past the data's end):
//
//	d_j = rlnc.Message{FileID: c.FileID, MessageID: j, Payload: X_j}.Digest()
//	Sum = MD5(d_0 ‖ … ‖ d_{K−1})
//
// so the vectors of a chunk are hashed side by side in the digest lanes
// (rlnc.DigestBatch; at the shipped plan a chunk is exactly one group
// of eight) and no chunk's check waits for another's. This is a file
// format: DESIGN.md §5 states it, TestSumMatchesDefinition pins it
// against crypto/md5 alone. It allocates nothing.
func (c *ChunkInfo) SumOf(plan Plan, data []byte) rlnc.Digest {
	vecBytes := gf.VecBytes(plan.FieldBits, plan.M)
	var (
		store   [sumGroup]rlnc.Message
		msgs    [sumGroup]*rlnc.Message
		digests [sumGroup]rlnc.Digest
	)
	h := md5.New()
	for j := 0; j < c.K; j += sumGroup {
		g := min(sumGroup, c.K-j)
		for l := 0; l < g; l++ {
			lo := min((j+l)*vecBytes, len(data))
			hi := min(lo+vecBytes, len(data))
			store[l] = rlnc.Message{FileID: c.FileID, MessageID: uint64(j + l), Payload: data[lo:hi]}
			msgs[l] = &store[l]
		}
		rlnc.DigestBatch(digests[:g], msgs[:g])
		for l := 0; l < g; l++ {
			h.Write(digests[l][:])
		}
	}
	var sum rlnc.Digest
	h.Sum(sum[:0])
	return sum
}

// HasSum reports whether the manifest recorded a Sum for this chunk.
func (c *ChunkInfo) HasSum() bool { return c.Sum != rlnc.Digest{} }

// CheckSum verifies data, the chunk as decoded, against the recorded
// Sum: ErrBadManifest when it is not the chunk's DataLen bytes, would
// not fit its K vectors (bytes past them would go unhashed), or hashes
// to another sum. A chunk without a Sum passes — a manifest of that
// format is checked whole, by Assembler.Finish.
func (c *ChunkInfo) CheckSum(plan Plan, data []byte) error {
	if !c.HasSum() {
		return nil
	}
	if len(data) != c.DataLen || len(data) > c.K*gf.VecBytes(plan.FieldBits, plan.M) {
		return fmt.Errorf("%w: chunk %#x is %d bytes, manifest says %d in %d vectors",
			ErrBadManifest, c.FileID, len(data), c.DataLen, c.K)
	}
	if c.SumOf(plan, data) != c.Sum {
		return fmt.Errorf("%w: chunk %#x content sum mismatch", ErrBadManifest, c.FileID)
	}
	return nil
}

// Params returns the rlnc parameters for this chunk under the plan.
func (c ChunkInfo) Params(plan Plan) (rlnc.Params, error) {
	f, err := gf.New(plan.FieldBits)
	if err != nil {
		return rlnc.Params{}, err
	}
	return rlnc.NewParams(f, c.K, plan.M, c.DataLen)
}

// Manifest is the metadata a user carries to reassemble a shared file:
// the plan, the ordered chunk list, and the total size. The coding
// secret is deliberately NOT part of the manifest — the manifest may be
// replicated for robustness, while the secret stays with the owner.
type Manifest struct {
	Name      string      `json:"name"`
	TotalSize int64       `json:"totalSize"`
	Plan      Plan        `json:"plan"`
	Chunks    []ChunkInfo `json:"chunks"`

	// ContentMD5 is read-only legacy: the hex MD5 of the whole file, the
	// end-to-end check of manifests written before every chunk carried
	// a Sum. Nothing writes it; where one is present a whole-file fetch
	// still verifies it (Assembler.Finish).
	ContentMD5 string `json:"contentMd5,omitempty"`
}

// ContentDigest returns the hex MD5 of a file body, the form of the
// legacy Manifest.ContentMD5.
func ContentDigest(data []byte) string {
	sum := md5.Sum(data)
	return hex.EncodeToString(sum[:])
}

// Validate checks structural consistency of the manifest.
func (m *Manifest) Validate() error {
	if err := m.Plan.Validate(); err != nil {
		return err
	}
	if len(m.Chunks) == 0 {
		return fmt.Errorf("%w: no chunks", ErrBadManifest)
	}
	var total int64
	for i, c := range m.Chunks {
		if c.DataLen < 0 || c.K <= 0 {
			return fmt.Errorf("%w: chunk %d has dataLen=%d k=%d", ErrBadManifest, i, c.DataLen, c.K)
		}
		if i < len(m.Chunks)-1 && c.DataLen != m.Plan.ChunkSize {
			return fmt.Errorf("%w: interior chunk %d is %d bytes, want %d",
				ErrBadManifest, i, c.DataLen, m.Plan.ChunkSize)
		}
		if c.HasSum() != m.Chunks[0].HasSum() {
			return fmt.Errorf("%w: chunk %d has a sum and chunk 0 none, or the reverse", ErrBadManifest, i)
		}
		total += int64(c.DataLen)
	}
	if total != m.TotalSize {
		return fmt.Errorf("%w: chunk sizes sum to %d, total says %d", ErrBadManifest, total, m.TotalSize)
	}
	return nil
}

// DigestCount returns the total number of stored message digests, the
// metadata the user must carry when the owner is offline (Sec. III-C).
func (m *Manifest) DigestCount() int {
	n := 0
	for _, c := range m.Chunks {
		n += len(c.Digests)
	}
	return n
}
