package rlnc

// Data modification (Sec. VI-A future work). The paper notes that "in
// the current incarnation, modifications have to be re-encoded and
// re-transmitted to the network". Because the code is linear and the
// coefficient row for a given (fileID, messageID) is fixed by the
// secret, an update can instead ship *delta* messages:
//
//	Y_new(id) = sum_j beta_j (X_j + D_j) = Y_old(id) + Y_delta(id)
//
// where D is the XOR difference of the old and new content. A storage
// peer patches each stored message in place by XOR-ing the delta
// payload with the same message-id — no secret required, and the
// upload cost is one message per stored message rather than a full
// re-dissemination when deltas are sparse (all-zero delta messages can
// be skipped entirely).

import (
	"bytes"
	"fmt"

	"asymshare/internal/gf"
)

// DeltaEncoder mints delta messages between two versions of a
// generation with identical parameters and identifiers.
type DeltaEncoder struct {
	enc *Encoder
}

// NewDeltaEncoder builds the delta generation for oldData -> newData.
// Both must be exactly params.DataLen bytes.
func NewDeltaEncoder(params Params, fileID uint64, secret, oldData, newData []byte) (*DeltaEncoder, error) {
	if len(oldData) != params.DataLen || len(newData) != params.DataLen {
		return nil, fmt.Errorf("%w: version sizes %d/%d, params say %d",
			ErrBadParams, len(oldData), len(newData), params.DataLen)
	}
	delta := make([]byte, len(oldData))
	for i := range delta {
		delta[i] = oldData[i] ^ newData[i]
	}
	enc, err := NewEncoder(params, fileID, secret, delta)
	if err != nil {
		return nil, err
	}
	return &DeltaEncoder{enc: enc}, nil
}

// Unchanged reports whether the two versions are identical (every
// delta message would be zero).
func (d *DeltaEncoder) Unchanged() bool {
	for _, chunk := range d.enc.chunks {
		if !gf.IsZeroSlice(chunk) {
			return false
		}
	}
	return true
}

// Delta returns the delta message for one message-id. Applying it with
// ApplyDelta to the stored old message yields the message of the new
// version.
func (d *DeltaEncoder) Delta(messageID uint64) *Message {
	return d.enc.Message(messageID)
}

// DeltaInto mints the delta payload for one message-id into payload
// (exactly ChunkBytes long, caller-owned), like Encoder.MessageInto.
func (d *DeltaEncoder) DeltaInto(messageID uint64, payload []byte) {
	d.enc.MessageInto(messageID, payload)
}

// IsNoop reports whether the delta for the given id is all-zero (the
// peer's stored message is already correct and nothing need be sent).
func (d *DeltaEncoder) IsNoop(messageID uint64) bool {
	return gf.IsZeroSlice(d.enc.Message(messageID).Payload)
}

// ApplyDelta patches a stored message in place with a delta message of
// the same identifiers. It returns an error on any identifier or size
// mismatch — applying a delta to the wrong message would silently
// corrupt the store.
func ApplyDelta(stored, delta *Message) error {
	if stored.FileID != delta.FileID || stored.MessageID != delta.MessageID {
		return fmt.Errorf("%w: delta (%d,%d) against stored (%d,%d)",
			ErrBadParams, delta.FileID, delta.MessageID, stored.FileID, stored.MessageID)
	}
	if len(stored.Payload) != len(delta.Payload) {
		return fmt.Errorf("%w: delta payload %d bytes, stored %d",
			ErrBadParams, len(delta.Payload), len(stored.Payload))
	}
	gf.AddSlice(stored.Payload, delta.Payload)
	return nil
}

// Equal reports whether two messages are identical.
func (m *Message) Equal(o *Message) bool {
	return m.FileID == o.FileID && m.MessageID == o.MessageID && bytes.Equal(m.Payload, o.Payload)
}
