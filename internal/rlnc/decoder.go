package rlnc

// Incremental decoder (Sec. III-B of the paper). A user collects encoded
// messages from many peers in parallel; each arriving message's
// coefficient row is re-derived from its plaintext message-id and the
// file secret, then folded into a reduced row-echelon system. Once rank
// reaches k the original chunks fall out of the eliminated payloads with
// no separate matrix inversion.
//
// The decoder tolerates duplicate and linearly dependent messages (they
// are simply not innovative) and, when given the owner's digest list,
// rejects forged messages before they can poison the system
// (Sec. III-C).

import (
	"errors"
	"fmt"

	"asymshare/internal/gf"
)

// ErrBadDigest is returned when a message fails digest authentication.
var ErrBadDigest = errors.New("rlnc: message digest mismatch")

// ErrWrongFile is returned when a message belongs to a different file.
var ErrWrongFile = errors.New("rlnc: message for different file")

// Decoder reconstructs one generation from >= k innovative messages.
// It is not safe for concurrent use; callers multiplexing several
// download streams use the parallel Pipeline.
type Decoder struct {
	params  Params
	fileID  uint64
	gen     *CoeffGenerator
	digests map[uint64]Digest // optional authentication material

	echelon  [][]uint32 // RREF coefficient rows with unit pivots
	pivots   []int
	payloads [][]byte
	seen     map[uint64]bool

	stats Stats
}

// NewDecoder prepares a decoder for the generation identified by fileID.
// digests, if non-nil, maps message-id to the owner-published MD5 digest
// and enables per-message authentication.
func NewDecoder(params Params, fileID uint64, secret []byte, digests map[uint64]Digest) (*Decoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	gen, err := NewCoeffGenerator(params.Field, params.K, secret)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		params:  params,
		fileID:  fileID,
		gen:     gen,
		digests: digests,
		seen:    make(map[uint64]bool),
	}, nil
}

// Rank returns the current dimension of the received span.
func (d *Decoder) Rank() int { return len(d.echelon) }

// Done reports whether enough innovative messages have arrived.
func (d *Decoder) Done() bool { return d.Rank() >= d.params.K }

// Stats returns the message accounting so far (see the Stats type for
// the bucket invariant).
func (d *Decoder) Stats() Stats { return d.stats }

// Add folds one message into the system and reports whether it was
// innovative. Its coefficient row is re-derived from the secret, never
// read off the wire. Messages for other files and authentication
// failures return errors; dependent or duplicate messages return
// (false, nil).
func (d *Decoder) Add(msg *Message) (bool, error) {
	d.stats.Received++
	if msg.FileID != d.fileID {
		d.stats.Rejected++
		return false, fmt.Errorf("%w: got file %d, want %d", ErrWrongFile, msg.FileID, d.fileID)
	}
	if len(msg.Payload) != d.params.ChunkBytes() {
		d.stats.Rejected++
		return false, fmt.Errorf("%w: payload %d bytes, want %d",
			ErrBadParams, len(msg.Payload), d.params.ChunkBytes())
	}
	// Checks in order of cost, as the Pipeline stages them: a message
	// that cannot matter — its id already verified, or the generation
	// complete — is settled without being hashed.
	want, known := d.digests[msg.MessageID]
	switch {
	case d.digests != nil && !known:
		d.stats.Rejected++
		return false, fmt.Errorf("%w: message-id %d", ErrBadDigest, msg.MessageID)
	case d.seen[msg.MessageID]:
		d.stats.Duplicate++
		return false, nil
	case d.Done():
		d.stats.Redundant++
		return false, nil
	case d.digests != nil && msg.Digest() != want:
		d.stats.Rejected++
		return false, fmt.Errorf("%w: message-id %d", ErrBadDigest, msg.MessageID)
	}
	d.seen[msg.MessageID] = true

	row := d.gen.Row(d.fileID, msg.MessageID)
	p := make([]byte, len(msg.Payload))
	copy(p, msg.Payload)
	return d.addRow(row, p), nil
}

func (d *Decoder) addRow(row []uint32, payload []byte) bool {
	f := d.params.Field
	if !reduceRow(f, row, d.echelon, d.pivots, payload, d.payloads) {
		d.stats.Redundant++
		return false
	}
	d.echelon = append(d.echelon, row)
	d.pivots = append(d.pivots, leadingIndex(row))
	d.payloads = append(d.payloads, payload)
	d.stats.Accepted++
	return true
}

// Decode completes back-substitution and returns the original data,
// trimmed to params.DataLen. It returns ErrNotDecodable if rank < k.
func (d *Decoder) Decode() ([]byte, error) {
	if !d.Done() {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrNotDecodable, d.Rank(), d.params.K)
	}
	f := d.params.Field
	k := d.params.K

	// Forward elimination left unit pivots but the rows above a pivot
	// may still reference its column: clear them (full Gauss-Jordan).
	for i := k - 1; i >= 0; i-- {
		p := d.pivots[i]
		for r := 0; r < k; r++ {
			if r == i {
				continue
			}
			factor := d.echelon[r][p]
			if factor == 0 {
				continue
			}
			addScaledRow(f, d.echelon[r], d.echelon[i], factor)
			gf.MulAddSlice(f, d.payloads[r], d.payloads[i], factor)
		}
	}

	// Now row i holds exactly chunk pivots[i].
	cb := d.params.ChunkBytes()
	out := make([]byte, k*cb)
	for i := 0; i < k; i++ {
		copy(out[d.pivots[i]*cb:], d.payloads[i])
	}
	return out[:d.params.DataLen], nil
}
