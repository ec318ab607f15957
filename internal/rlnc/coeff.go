package rlnc

// Keyed coefficient generation (Sec. III-A of the paper). The encoding
// coefficients beta_i = [beta_i1 .. beta_ik] for message i are drawn
// from a cryptographically strong pseudorandom stream seeded with a
// cryptographic hash of the message-id i and a secret key known only to
// the owning peer. Because the betas are never transmitted, a storage
// peer holding message Y_i cannot decode it without guessing the full
// k-tuple — and has no way to verify a guess (Sec. III-C).
//
// The stream is HMAC-SHA256(secret, fileID || messageID || counter),
// expanded block by block; each coefficient consumes ceil(p/8) bytes and
// is masked to p bits, which is uniform because p divides the bit width
// consumed.

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"asymshare/internal/gf"
)

// SecretLen is the recommended secret key length in bytes.
const SecretLen = 32

// CoeffGenerator deterministically derives coefficient rows from a
// secret. It is immutable and safe for concurrent use.
type CoeffGenerator struct {
	secret []byte
	field  gf.Field
	k      int
}

// NewCoeffGenerator returns a generator for rows of k coefficients over
// the given field. The secret is copied.
func NewCoeffGenerator(field gf.Field, k int, secret []byte) (*CoeffGenerator, error) {
	if field == nil || k <= 0 {
		return nil, fmt.Errorf("%w: field=%v k=%d", ErrBadParams, field, k)
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("%w: empty secret", ErrBadParams)
	}
	s := make([]byte, len(secret))
	copy(s, secret)
	return &CoeffGenerator{secret: s, field: field, k: k}, nil
}

// K returns the row length.
func (g *CoeffGenerator) K() int { return g.k }

// Field returns the coefficient field.
func (g *CoeffGenerator) Field() gf.Field { return g.field }

// Row returns the coefficient row beta_i for the message identified by
// (fileID, messageID). The same identifiers always yield the same row.
func (g *CoeffGenerator) Row(fileID, messageID uint64) []uint32 {
	row := make([]uint32, g.k)
	g.RowInto(fileID, messageID, row)
	return row
}

// RowInto fills row (which must have length k) with the coefficients
// for (fileID, messageID), avoiding a row allocation. Each call still
// instantiates a fresh HMAC; hot loops deriving many rows should hold a
// Stream instead.
func (g *CoeffGenerator) RowInto(fileID, messageID uint64, row []uint32) {
	s := RowStream{g: g, mac: hmac.New(sha256.New, g.secret)}
	s.RowInto(fileID, messageID, row)
}

// RowStream derives coefficient rows with a reusable keyed HMAC and
// block buffer, so steady-state derivation allocates nothing. A
// RowStream is not safe for concurrent use; the pipeline keeps one for
// whichever producer is settling a group.
type RowStream struct {
	g     *CoeffGenerator
	mac   hash.Hash
	block []byte
	seed  [20]byte // fileID || messageID || block counter
}

// Stream returns a reusable row deriver bound to the generator.
func (g *CoeffGenerator) Stream() *RowStream {
	return &RowStream{
		g:     g,
		mac:   hmac.New(sha256.New, g.secret),
		block: make([]byte, 0, sha256.Size),
	}
}

// RowInto fills row with the coefficients for (fileID, messageID),
// producing exactly the same stream as CoeffGenerator.RowInto.
func (s *RowStream) RowInto(fileID, messageID uint64, row []uint32) {
	g := s.g
	if len(row) != g.k {
		panic("rlnc: RowInto row length mismatch")
	}
	bytesPerCoeff := int(g.field.Bits()+7) / 8
	mask := g.field.Mask()

	binary.BigEndian.PutUint64(s.seed[0:], fileID)
	binary.BigEndian.PutUint64(s.seed[8:], messageID)

	counter := uint32(0)
	for i := 0; i < g.k; {
		binary.BigEndian.PutUint32(s.seed[16:], counter)
		s.mac.Reset()
		s.mac.Write(s.seed[:])
		s.block = s.mac.Sum(s.block[:0])
		counter++
		for off := 0; off+bytesPerCoeff <= len(s.block) && i < g.k; i++ {
			var v uint32
			for b := 0; b < bytesPerCoeff; b++ {
				v = v<<8 | uint32(s.block[off])
				off++
			}
			row[i] = v & mask
		}
	}
}

// RowMatrix returns the coefficient rows for the given message ids as a
// matrix, in id order.
func (g *CoeffGenerator) RowMatrix(fileID uint64, messageIDs []uint64) *Matrix {
	m := NewMatrix(g.field, len(messageIDs), g.k)
	for i, id := range messageIDs {
		g.RowInto(fileID, id, m.Row(i))
	}
	return m
}
