// Package rlnc implements the random linear coding scheme of Section III
// of the paper: a file of b bits is split into k chunks, each an m-symbol
// vector over GF(2^p), and encoded messages Y_i = sum_j beta_ij * X_j are
// produced with coefficient rows beta_i derived from a per-file secret
// key (never transmitted), so storage peers cannot decode what they hold.
package rlnc

import (
	"errors"
	"fmt"

	"asymshare/internal/gf"
)

var (
	// ErrBadParams is returned when coding parameters are inconsistent.
	ErrBadParams = errors.New("rlnc: invalid parameters")

	// ErrNotDecodable is returned by Decode before rank k is reached.
	ErrNotDecodable = errors.New("rlnc: not enough innovative messages to decode")

	// ErrDataTooLarge is returned when the input does not fit in k chunks.
	ErrDataTooLarge = errors.New("rlnc: data exceeds generation capacity")
)

// Params fixes the coding geometry of one generation: the field, the
// number of chunks k, the symbols per chunk m, and the exact byte length
// of the original data (needed to strip padding after decoding).
type Params struct {
	Field   gf.Field
	K       int // chunks per generation (decoding needs k innovative messages)
	M       int // symbols per chunk
	DataLen int // original data length in bytes; <= K * ChunkBytes()
}

// NewParams validates and returns coding parameters.
func NewParams(field gf.Field, k, m, dataLen int) (Params, error) {
	p := Params{Field: field, K: k, M: m, DataLen: dataLen}
	if field == nil {
		return Params{}, fmt.Errorf("%w: nil field", ErrBadParams)
	}
	if k <= 0 || m <= 0 || dataLen < 0 {
		return Params{}, fmt.Errorf("%w: k=%d m=%d dataLen=%d", ErrBadParams, k, m, dataLen)
	}
	if m*int(field.Bits())%8 != 0 {
		return Params{}, fmt.Errorf("%w: chunk of %d GF(2^%d) symbols is not byte-aligned",
			ErrBadParams, m, field.Bits())
	}
	if dataLen > p.CapacityBytes() {
		return Params{}, fmt.Errorf("%w: %d bytes > capacity %d", ErrDataTooLarge, dataLen, p.CapacityBytes())
	}
	return p, nil
}

// ParamsForSize chooses k so that dataLen bytes fit into chunks of m
// symbols over the given field — the construction behind Table I of the
// paper (k = b / (m * p) for b bits of data).
func ParamsForSize(field gf.Field, dataLen, m int) (Params, error) {
	if field == nil {
		return Params{}, fmt.Errorf("%w: nil field", ErrBadParams)
	}
	if m <= 0 || dataLen <= 0 {
		return Params{}, fmt.Errorf("%w: m=%d dataLen=%d", ErrBadParams, m, dataLen)
	}
	chunkBytes := gf.VecBytes(field.Bits(), m)
	if m*int(field.Bits())%8 != 0 {
		return Params{}, fmt.Errorf("%w: chunk of %d GF(2^%d) symbols is not byte-aligned",
			ErrBadParams, m, field.Bits())
	}
	k := (dataLen + chunkBytes - 1) / chunkBytes
	return NewParams(field, k, m, dataLen)
}

// ChunkBytes returns the packed byte length of one chunk (and of one
// encoded payload, since coding preserves length).
func (p Params) ChunkBytes() int {
	return gf.VecBytes(p.Field.Bits(), p.M)
}

// CapacityBytes returns the maximum data length the generation can hold.
func (p Params) CapacityBytes() int {
	return p.K * p.ChunkBytes()
}

// MessageBytes returns the wire size of one encoded message, including
// the 16-byte plaintext header of Fig. 3 (8-byte file-id, 8-byte
// message-id).
func (p Params) MessageBytes() int {
	return headerBytes + p.ChunkBytes()
}

// Overhead returns the fraction of transmitted bytes that is header
// rather than payload, a measure of how the choice of m dilutes goodput.
func (p Params) Overhead() float64 {
	return float64(headerBytes) / float64(p.MessageBytes())
}

// Validate re-checks the invariants of p (useful after deserialization).
func (p Params) Validate() error {
	_, err := NewParams(p.Field, p.K, p.M, p.DataLen)
	return err
}

func (p Params) String() string {
	bits := uint(0)
	if p.Field != nil {
		bits = p.Field.Bits()
	}
	return fmt.Sprintf("rlnc.Params{GF(2^%d), k=%d, m=%d, data=%dB}", bits, p.K, p.M, p.DataLen)
}
