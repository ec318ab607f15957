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
	FileID  uint64                 `json:"fileId"`
	DataLen int                    `json:"dataLen"`
	K       int                    `json:"k"`
	Digests map[uint64]rlnc.Digest `json:"digests,omitempty"`
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

	// ContentMD5 is the hex MD5 of the whole file, giving the user an
	// end-to-end integrity check on the assembled result (in addition
	// to the per-message digests). Empty disables the check.
	ContentMD5 string `json:"contentMd5,omitempty"`
}

// ContentDigest returns the hex MD5 of a file body.
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
