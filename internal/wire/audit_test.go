package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func sampleChallenge() AuditChallenge {
	return AuditChallenge{
		FileID:     0xdeadbeef,
		Nonce:      bytes.Repeat([]byte{1}, AuditNonceLen),
		Key:        bytes.Repeat([]byte{2}, AuditKeyLen),
		MessageIDs: []uint64{3, 1, 4, 1<<60 + 5},
	}
}

func TestAuditChallengeRoundTrip(t *testing.T) {
	c := sampleChallenge()
	var got AuditChallenge
	if err := got.Unmarshal(c.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.FileID != c.FileID || !bytes.Equal(got.Nonce, c.Nonce) || !bytes.Equal(got.Key, c.Key) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(got.MessageIDs) != len(c.MessageIDs) {
		t.Fatalf("message ids = %v", got.MessageIDs)
	}
	for i, id := range c.MessageIDs {
		if got.MessageIDs[i] != id {
			t.Errorf("id %d = %d, want %d", i, got.MessageIDs[i], id)
		}
	}
}

func TestAuditChallengeRejectsMalformed(t *testing.T) {
	c := sampleChallenge()
	blob := c.Marshal()
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": blob[:len(blob)-3],
		"trailing":  append(append([]byte(nil), blob...), 9),
	}
	// A zero-sample challenge is meaningless.
	zero := sampleChallenge()
	zero.MessageIDs = nil
	cases["no sample"] = zero.Marshal()
	// An oversized sample must be refused before allocation.
	big := sampleChallenge()
	big.MessageIDs = make([]uint64, MaxAuditSample+1)
	cases["oversized"] = big.Marshal()
	for name, b := range cases {
		var got AuditChallenge
		if err := got.Unmarshal(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func TestAuditResponseRoundTrip(t *testing.T) {
	r := AuditResponse{
		FileID: 7,
		Proofs: []AuditProof{
			{MessageID: 1, Present: true, MAC: bytes.Repeat([]byte{9}, AuditMACLen)},
			{MessageID: 2},
			{MessageID: 3, Present: true, MAC: bytes.Repeat([]byte{8}, AuditMACLen)},
		},
	}
	var got AuditResponse
	if err := got.Unmarshal(r.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.FileID != r.FileID || len(got.Proofs) != len(r.Proofs) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i, p := range r.Proofs {
		g := got.Proofs[i]
		if g.MessageID != p.MessageID || g.Present != p.Present || !bytes.Equal(g.MAC, p.MAC) {
			t.Errorf("proof %d = %+v, want %+v", i, g, p)
		}
	}
}

func TestAuditResponseRejectsMalformed(t *testing.T) {
	r := AuditResponse{
		FileID: 7,
		Proofs: []AuditProof{{MessageID: 1, Present: true, MAC: bytes.Repeat([]byte{9}, AuditMACLen)}},
	}
	blob := r.Marshal()
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": blob[:len(blob)-1],
		"trailing":  append(append([]byte(nil), blob...), 1),
	}
	bad := append([]byte(nil), blob...)
	bad[12+8] = 7 // invalid presence flag
	cases["bad flag"] = bad
	for name, b := range cases {
		var got AuditResponse
		if err := got.Unmarshal(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestSendErrorSurfacesAsRemoteError pins the WriteError/Expect
// contract: the receiving side gets a typed *RemoteError carrying the
// code and reason, never a hang or a bare EOF.
func TestSendErrorSurfacesAsRemoteError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		_ = NewFrameWriter(a).WriteError(CodeBadRequest, "malformed audit challenge")
		a.Close()
	}()
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := NewFrameReader(b).Expect(TypeAuditResponse)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if remote.Code != CodeBadRequest || remote.Reason != "malformed audit challenge" {
		t.Errorf("remote = %+v", remote)
	}
}

// TestSendErrorReportsWriteFailure pins the documented best-effort
// contract: a dead transport makes WriteError return the write error
// instead of pretending the frame was delivered.
func TestSendErrorReportsWriteFailure(t *testing.T) {
	a, b := net.Pipe()
	a.Close()
	b.Close()
	if err := NewFrameWriter(a).WriteError(CodeInternal, "x"); err == nil {
		t.Error("WriteError on closed conn returned nil")
	}
}
