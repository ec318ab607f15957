package rlnc

// Encoded message layout (Fig. 3 of the paper): an 8-byte file-id and an
// 8-byte message-id in plaintext, followed by the m-symbol encoded
// payload. Messages are "pre-fabricated" at initialization time and
// forwarded verbatim by storage peers, so serving requires no
// computation.

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const headerBytes = 16

// MessageHeaderBytes is the size of the serialized message header: an
// 8-byte file-id followed by an 8-byte message-id (Fig. 3). Exported so
// the wire layer can frame stored messages without marshaling.
const MessageHeaderBytes = headerBytes

// ErrShortMessage is returned when unmarshaling a buffer smaller than
// the 16-byte message header.
var ErrShortMessage = errors.New("rlnc: message shorter than header")

// DigestLen is the length of a message authentication digest (128-bit
// MD5, as in Sec. III-C of the paper).
const DigestLen = md5.Size

// Digest is the per-message authentication digest stored by the owning
// peer and used to reject forged messages before decoding.
type Digest [DigestLen]byte

func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// Message is one encoded message Y_i.
type Message struct {
	FileID    uint64
	MessageID uint64
	Payload   []byte // packed m-symbol vector
}

// Digest returns the MD5 digest over the full serialized message
// (header and payload), so both identifier tampering and payload
// corruption are detected.
func (m *Message) Digest() Digest {
	h := md5.New()
	var hdr [headerBytes]byte
	binary.BigEndian.PutUint64(hdr[0:], m.FileID)
	binary.BigEndian.PutUint64(hdr[8:], m.MessageID)
	h.Write(hdr[:])
	h.Write(m.Payload)
	var d Digest
	h.Sum(d[:0])
	return d
}

// PutHeader writes the 16-byte serialized header into dst, which must
// be at least MessageHeaderBytes long. The zero-copy serve path frames
// a stored message as PutHeader + Payload — byte-identical to
// MarshalBinary without the copy of the payload.
func (m *Message) PutHeader(dst []byte) {
	binary.BigEndian.PutUint64(dst[0:], m.FileID)
	binary.BigEndian.PutUint64(dst[8:], m.MessageID)
}

// MarshalBinary serializes the message per Fig. 3.
func (m *Message) MarshalBinary() ([]byte, error) {
	buf := make([]byte, headerBytes+len(m.Payload))
	binary.BigEndian.PutUint64(buf[0:], m.FileID)
	binary.BigEndian.PutUint64(buf[8:], m.MessageID)
	copy(buf[headerBytes:], m.Payload)
	return buf, nil
}

// ViewMessage parses a serialized message in place: the returned
// Payload aliases data, so the message is only good for as long as the
// caller owns data — for handing a received frame to something that
// copies what it keeps (a store.Store) or only reads it (ApplyDelta).
func ViewMessage(data []byte) (Message, error) {
	if len(data) < headerBytes {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortMessage, len(data))
	}
	return Message{
		FileID:    binary.BigEndian.Uint64(data[0:]),
		MessageID: binary.BigEndian.Uint64(data[8:]),
		Payload:   data[headerBytes:],
	}, nil
}

// UnmarshalBinary parses a serialized message. The payload is copied.
func (m *Message) UnmarshalBinary(data []byte) error {
	v, err := ViewMessage(data)
	if err != nil {
		return err
	}
	v.Payload = append([]byte{}, v.Payload...)
	*m = v
	return nil
}

// WriteTo writes the serialized message to w.
func (m *Message) WriteTo(w io.Writer) (int64, error) {
	buf, err := m.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadMessage reads one message with a payload of exactly payloadLen
// bytes from r.
func ReadMessage(r io.Reader, payloadLen int) (*Message, error) {
	buf := make([]byte, headerBytes+payloadLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	var m Message
	if err := m.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return &m, nil
}

// Clone returns a deep copy of the message. The payload is appended to
// an empty slice, not copied into a made one, so the runtime does not
// zero 128 KiB it is about to overwrite.
func (m *Message) Clone() *Message {
	return &Message{FileID: m.FileID, MessageID: m.MessageID, Payload: append([]byte{}, m.Payload...)}
}

func (m *Message) String() string {
	return fmt.Sprintf("rlnc.Message{file=%d, id=%d, %dB}", m.FileID, m.MessageID, len(m.Payload))
}
