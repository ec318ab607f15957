// Package wire defines the length-prefixed binary framing spoken
// between users and peers, covering the full time-line of Fig. 4(b):
// mutual challenge-response authentication (1, 2), content requests
// (3), message delivery (4), stop-transmission (5) and the periodic
// informational feedback a user sends its own peer.
//
// A frame is a 1-byte type, a 4-byte big-endian payload length and the
// payload. Every connection reads frames through one FrameReader and
// writes them through one FrameWriter, from HELLO to BYE (reader.go,
// writer.go); this file holds the frame types and their payloads.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Type identifies a frame.
type Type uint8

// Frame types.
const (
	TypeHello           Type = iota + 1 // connection opener: role + public key
	TypeChallenge                       // authentication nonce
	TypeAuthResponse                    // signature over the nonce
	TypeAuthOK                          // authentication accepted
	TypePut                             // upload one encoded message for storage
	TypePutOK                           // storage acknowledged
	TypeGet                             // request streaming of a file's messages
	TypeData                            // one encoded message
	TypeStop                            // stop transmission (paper's message "5")
	TypeFeedback                        // informational update to the user's own peer
	TypeError                           // terminal error with reason
	TypeBye                             // orderly close
	TypePatch                           // apply a delta message to a stored message
	TypeList                            // request the peer's stored file inventory
	TypeFileList                        // inventory response
	TypeAuditChallenge                  // keyed spot-check over sampled stored messages
	TypeAuditResponse                   // per-message possession proofs
	TypeContractPropose                 // owner offers a storage obligation
	TypeContractGrant                   // peer accepted (or renewed/released) an obligation
	TypeContractRenew                   // owner extends an obligation's term
	TypeContractRelease                 // owner releases an obligation early
	TypeContractList                    // request the peer's obligation book
	TypeContractInfo                    // obligation book response
	TypeGetMux                          // multiplexed get: failures scoped to the stream, not the conn
	TypeStreamError                     // terminal error for one multiplexed stream
	TypeBusy                            // load shed: request refused or preempted, retry after a delay
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeChallenge:
		return "CHALLENGE"
	case TypeAuthResponse:
		return "AUTH"
	case TypeAuthOK:
		return "AUTH_OK"
	case TypePut:
		return "PUT"
	case TypePutOK:
		return "PUT_OK"
	case TypeGet:
		return "GET"
	case TypeData:
		return "DATA"
	case TypeStop:
		return "STOP"
	case TypeFeedback:
		return "FEEDBACK"
	case TypeError:
		return "ERROR"
	case TypeBye:
		return "BYE"
	case TypePatch:
		return "PATCH"
	case TypeList:
		return "LIST"
	case TypeFileList:
		return "FILE_LIST"
	case TypeAuditChallenge:
		return "AUDIT_CHALLENGE"
	case TypeAuditResponse:
		return "AUDIT_RESPONSE"
	case TypeContractPropose:
		return "CONTRACT_PROPOSE"
	case TypeContractGrant:
		return "CONTRACT_GRANT"
	case TypeContractRenew:
		return "CONTRACT_RENEW"
	case TypeContractRelease:
		return "CONTRACT_RELEASE"
	case TypeContractList:
		return "CONTRACT_LIST"
	case TypeContractInfo:
		return "CONTRACT_INFO"
	case TypeGetMux:
		return "GET_MUX"
	case TypeStreamError:
		return "STREAM_ERROR"
	case TypeBusy:
		return "BUSY"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// MaxFrameSize bounds a frame payload; anything larger aborts the
// connection rather than ballooning memory.
const MaxFrameSize = 8 << 20

var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

	// ErrBadFrame is returned for malformed frame payloads.
	ErrBadFrame = errors.New("wire: malformed frame")

	// ErrUnexpectedFrame is returned when the protocol state machine
	// receives a frame type it cannot handle.
	ErrUnexpectedFrame = errors.New("wire: unexpected frame type")
)

// Role distinguishes the two ends of a connection.
type Role uint8

// Connection roles.
const (
	RoleUser Role = iota + 1 // a remote user downloading or disseminating
	RolePeer                 // another storage peer
)

// Hello opens a connection: the initiator announces its role and key
// and challenges the responder with a fresh nonce (mutual
// authentication, as the paper recommends against MITM/IP-spoofing).
type Hello struct {
	Role   Role
	PubKey []byte // Ed25519 public key, 32 bytes
	Nonce  []byte // initiator's challenge to the responder, 32 bytes
}

// Marshal serializes the hello.
func (h *Hello) Marshal() []byte {
	out := make([]byte, 0, 1+len(h.PubKey)+len(h.Nonce))
	out = append(out, byte(h.Role))
	out = append(out, h.PubKey...)
	return append(out, h.Nonce...)
}

// Unmarshal parses a hello.
func (h *Hello) Unmarshal(b []byte) error {
	if len(b) != 1+32+32 {
		return fmt.Errorf("%w: hello of %d bytes", ErrBadFrame, len(b))
	}
	h.Role = Role(b[0])
	if h.Role != RoleUser && h.Role != RolePeer {
		return fmt.Errorf("%w: unknown role %d", ErrBadFrame, b[0])
	}
	h.PubKey = append([]byte(nil), b[1:33]...)
	h.Nonce = append([]byte(nil), b[33:]...)
	return nil
}

// Challenge is the responder's reply to a Hello: it proves possession
// of its own key by signing the initiator's nonce, and counter-
// challenges with a nonce of its own.
type Challenge struct {
	PubKey    []byte // responder's key, 32 bytes
	Signature []byte // over the initiator's nonce, 64 bytes
	Nonce     []byte // responder's challenge, 32 bytes
}

// Marshal serializes the challenge.
func (c *Challenge) Marshal() []byte {
	out := make([]byte, 0, len(c.PubKey)+len(c.Signature)+len(c.Nonce))
	out = append(out, c.PubKey...)
	out = append(out, c.Signature...)
	return append(out, c.Nonce...)
}

// Unmarshal parses the challenge.
func (c *Challenge) Unmarshal(b []byte) error {
	if len(b) != 32+64+32 {
		return fmt.Errorf("%w: challenge of %d bytes", ErrBadFrame, len(b))
	}
	c.PubKey = append([]byte(nil), b[:32]...)
	c.Signature = append([]byte(nil), b[32:96]...)
	c.Nonce = append([]byte(nil), b[96:]...)
	return nil
}

// AuthResponse carries the responder's key and challenge signature.
type AuthResponse struct {
	PubKey    []byte // 32 bytes
	Signature []byte // 64 bytes
}

// Marshal serializes the response.
func (a *AuthResponse) Marshal() []byte {
	out := make([]byte, 0, len(a.PubKey)+len(a.Signature))
	out = append(out, a.PubKey...)
	return append(out, a.Signature...)
}

// Unmarshal parses the response.
func (a *AuthResponse) Unmarshal(b []byte) error {
	if len(b) != 32+64 {
		return fmt.Errorf("%w: auth response of %d bytes", ErrBadFrame, len(b))
	}
	a.PubKey = append([]byte(nil), b[:32]...)
	a.Signature = append([]byte(nil), b[32:]...)
	return nil
}

// Get requests the messages of one file. Limit caps how many messages
// the peer should send (0 means "all you have").
//
// DeadlineMillis and Priority propagate the requester's urgency to the
// serving peer. DeadlineMillis is the *remaining* time budget at send
// (relative, so no clock synchronization is needed; the peer anchors it
// to its own clock on receipt); 0 means no deadline. A peer drops work
// whose deadline has already passed instead of serving dead bytes.
// Priority breaks admission ties under overload: a higher-priority
// request may preempt a lower-priority stream.
//
// Interop: both fields ride an extended 17-byte encoding, and only
// when both are zero does Marshal emit the legacy 12-byte form. A
// pre-extension peer's strict Unmarshal rejects the 17-byte form as a
// connection-level bad-frame error rather than ignoring the new
// fields, so a nonzero deadline or priority requires every addressed
// peer to be upgraded. Deploy order therefore matters: upgrade peers
// first, then let clients start setting deadlines/priorities (there is
// no capability negotiation in the handshake yet).
type Get struct {
	FileID         uint64
	Limit          uint32
	DeadlineMillis uint32 // remaining budget in ms; 0 = no deadline
	Priority       uint8  // 0 = normal; higher wins admission ties
}

// Marshal serializes the request.
func (g *Get) Marshal() []byte {
	if g.DeadlineMillis == 0 && g.Priority == 0 {
		out := make([]byte, 12)
		binary.BigEndian.PutUint64(out, g.FileID)
		binary.BigEndian.PutUint32(out[8:], g.Limit)
		return out
	}
	out := make([]byte, 17)
	binary.BigEndian.PutUint64(out, g.FileID)
	binary.BigEndian.PutUint32(out[8:], g.Limit)
	binary.BigEndian.PutUint32(out[12:], g.DeadlineMillis)
	out[16] = g.Priority
	return out
}

// Unmarshal parses the request, accepting both the legacy 12-byte and
// the extended 17-byte encodings.
func (g *Get) Unmarshal(b []byte) error {
	if len(b) != 12 && len(b) != 17 {
		return fmt.Errorf("%w: get of %d bytes", ErrBadFrame, len(b))
	}
	g.FileID = binary.BigEndian.Uint64(b)
	g.Limit = binary.BigEndian.Uint32(b[8:])
	g.DeadlineMillis = 0
	g.Priority = 0
	if len(b) == 17 {
		g.DeadlineMillis = binary.BigEndian.Uint32(b[12:])
		g.Priority = b[16]
	}
	return nil
}

// Stop asks the peer to cease streaming a file (the user has decoded).
type Stop struct {
	FileID uint64
}

// Marshal serializes the stop.
func (s *Stop) Marshal() []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, s.FileID)
	return out
}

// Unmarshal parses the stop.
func (s *Stop) Unmarshal(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("%w: stop of %d bytes", ErrBadFrame, len(b))
	}
	s.FileID = binary.BigEndian.Uint64(b)
	return nil
}

// Feedback is the periodic informational update a user sends to its own
// peer so the peer "can make informed decisions on dividing its upload
// capacity among other users" (Sec. III-B). Entries report how many
// bytes the user received from each serving peer, keyed by key
// fingerprint.
type Feedback struct {
	Entries []FeedbackEntry `json:"entries"`
}

// FeedbackEntry is one per-peer receipt report. Bytes credits service
// received; Debit penalizes a peer the owner has caught failing keyed
// retention audits (internal/audit), so the owner's peer stops
// rewarding counterparts that discard stored data.
type FeedbackEntry struct {
	PeerFingerprint string `json:"peer"`
	Bytes           uint64 `json:"bytes"`
	Debit           uint64 `json:"debit,omitempty"`
}

// Marshal serializes the feedback as JSON (it is low-rate control
// traffic).
func (f *Feedback) Marshal() ([]byte, error) {
	return json.Marshal(f)
}

// Unmarshal parses feedback.
func (f *Feedback) Unmarshal(b []byte) error {
	if err := json.Unmarshal(b, f); err != nil {
		return fmt.Errorf("%w: feedback: %v", ErrBadFrame, err)
	}
	return nil
}

// FileList is the response to a LIST request: the peer's stored
// inventory, without payloads (identifiers and counts only — a peer
// cannot leak content it cannot itself decode, but the listing helps
// owners audit replication).
type FileList struct {
	Files []FileEntry `json:"files"`
}

// FileEntry describes one stored generation.
type FileEntry struct {
	FileID   uint64 `json:"fileId"`
	Messages int    `json:"messages"`
}

// Marshal serializes the list as JSON (low-rate control traffic).
func (l *FileList) Marshal() ([]byte, error) {
	return json.Marshal(l)
}

// Unmarshal parses a list.
func (l *FileList) Unmarshal(b []byte) error {
	if err := json.Unmarshal(b, l); err != nil {
		return fmt.Errorf("%w: file list: %v", ErrBadFrame, err)
	}
	return nil
}

// Error codes carried in ErrorMsg.
const (
	CodeAuthFailed      uint16 = 1
	CodeUnknownFile     uint16 = 2
	CodeBadRequest      uint16 = 3
	CodeInternal        uint16 = 4
	CodeNotPermitted    uint16 = 5
	CodeOverCapacity    uint16 = 6 // contract would exceed the peer's advertised capacity
	CodeUnknownContract uint16 = 7 // renew/release of an obligation the peer does not hold
	CodeBusy            uint16 = 8 // admission refused or stream preempted under overload
	CodeExpired         uint16 = 9 // the request's deadline passed before it could be served
)

// ErrorMsg is a terminal protocol error.
type ErrorMsg struct {
	Code   uint16
	Reason string
}

// Marshal serializes the error.
func (e *ErrorMsg) Marshal() []byte {
	out := make([]byte, 2+len(e.Reason))
	binary.BigEndian.PutUint16(out, e.Code)
	copy(out[2:], e.Reason)
	return out
}

// Unmarshal parses the error.
func (e *ErrorMsg) Unmarshal(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("%w: error frame of %d bytes", ErrBadFrame, len(b))
	}
	e.Code = binary.BigEndian.Uint16(b)
	e.Reason = string(b[2:])
	return nil
}

// StreamError is a terminal error for one multiplexed stream. Unlike
// ErrorMsg — which by contract kills the whole connection — a
// StreamError ends only the stream it names: the other generation
// streams sharing the connection keep flowing. Peers answer a failed
// GET_MUX with it, and a serving error mid-stream is reported the same
// way.
type StreamError struct {
	FileID uint64
	Code   uint16
	Reason string
}

// Marshal serializes the stream error.
func (e *StreamError) Marshal() []byte {
	out := make([]byte, 10+len(e.Reason))
	binary.BigEndian.PutUint64(out, e.FileID)
	binary.BigEndian.PutUint16(out[8:], e.Code)
	copy(out[10:], e.Reason)
	return out
}

// Unmarshal parses a stream error.
func (e *StreamError) Unmarshal(b []byte) error {
	if len(b) < 10 {
		return fmt.Errorf("%w: stream error frame of %d bytes", ErrBadFrame, len(b))
	}
	e.FileID = binary.BigEndian.Uint64(b)
	e.Code = binary.BigEndian.Uint16(b[8:])
	e.Reason = string(b[10:])
	return nil
}

// Error makes a StreamError usable as a Go error directly.
func (e *StreamError) Error() string {
	return fmt.Sprintf("wire: stream %d error %d: %s", e.FileID, e.Code, e.Reason)
}

// Busy is a typed load-shed refusal. Unlike ErrorMsg it is NOT
// terminal for the connection: the peer refused (or preempted) one
// piece of work and the requester should retry after at least
// RetryAfterMillis. FileID scopes the shed to one multiplexed stream;
// 0 means the whole request (legacy GET path). Code is CodeBusy for
// admission refusals and preemptions, CodeExpired when the request's
// own deadline passed before service.
type Busy struct {
	FileID           uint64
	Code             uint16
	RetryAfterMillis uint32 // minimum back-off hint; always > 0 for CodeBusy
	Reason           string
}

// Marshal serializes the busy frame.
func (b *Busy) Marshal() []byte {
	out := make([]byte, 14+len(b.Reason))
	binary.BigEndian.PutUint64(out, b.FileID)
	binary.BigEndian.PutUint16(out[8:], b.Code)
	binary.BigEndian.PutUint32(out[10:], b.RetryAfterMillis)
	copy(out[14:], b.Reason)
	return out
}

// Unmarshal parses a busy frame.
func (b *Busy) Unmarshal(p []byte) error {
	if len(p) < 14 {
		return fmt.Errorf("%w: busy frame of %d bytes", ErrBadFrame, len(p))
	}
	b.FileID = binary.BigEndian.Uint64(p)
	b.Code = binary.BigEndian.Uint16(p[8:])
	b.RetryAfterMillis = binary.BigEndian.Uint32(p[10:])
	b.Reason = string(p[14:])
	return nil
}

// Error makes a Busy frame usable as a Go error directly, so clients
// can match on *wire.Busy and honor RetryAfterMillis.
func (b *Busy) Error() string {
	return fmt.Sprintf("wire: busy (code %d, retry after %dms): %s", b.Code, b.RetryAfterMillis, b.Reason)
}

// RemoteError is an error frame surfaced as a Go error.
type RemoteError struct {
	Code   uint16
	Reason string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Reason)
}
