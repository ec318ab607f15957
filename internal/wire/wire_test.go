package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"

	"asymshare/internal/auth"
)

// roundTrip writes one frame through a FrameWriter and reads it back
// through a FrameReader.
func roundTrip(t *testing.T, ty Type, payload []byte) (Type, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(ty, payload); err != nil {
		t.Fatal(err)
	}
	got, b, err := NewFrameReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	return got, append([]byte(nil), b.Bytes()...)
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello world")
	if ty, got := roundTrip(t, TypeData, payload); ty != TypeData || !bytes.Equal(got, payload) {
		t.Fatalf("frame = %s %q", ty, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	if ty, got := roundTrip(t, TypeAuthOK, nil); ty != TypeAuthOK || len(got) != 0 {
		t.Fatalf("frame = %s %q", ty, got)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(TypeData, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write error = %v", err)
	}
	// A forged oversize header must be rejected on read.
	buf.Write([]byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := NewFrameReader(&buf).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize read error = %v", err)
	}
}

// TestExpect pins how Expect reads an ERROR frame: one that decodes is
// the remote's *RemoteError, one that does not is ErrBadFrame — never
// the frame itself.
func TestExpect(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteError(CodeUnknownFile, "nope"); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(TypeError, []byte{1}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	_, err := fr.Expect(TypeData)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeUnknownFile || remote.Reason != "nope" {
		t.Errorf("remote error = %v", err)
	}
	if _, err := fr.Expect(TypeData); !errors.Is(err, ErrBadFrame) || errors.As(err, &remote) {
		t.Errorf("undecodable remote error = %v, want ErrBadFrame", err)
	}
}

func TestTypeString(t *testing.T) {
	for ty := TypeHello; ty <= TypeBye; ty++ {
		if s := ty.String(); s == "" || s[0] == 'T' && s != "TYPE(0)" && len(s) > 8 && s[:5] == "TYPE(" {
			t.Errorf("missing name for type %d", ty)
		}
	}
	if got := Type(200).String(); got != "TYPE(200)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := auth.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	h := Hello{Role: RoleUser, PubKey: id.Public(), Nonce: nonce}
	var got Hello
	if err := got.Unmarshal(h.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.Role != RoleUser || !bytes.Equal(got.PubKey, h.PubKey) || !bytes.Equal(got.Nonce, nonce) {
		t.Fatalf("round trip: %+v", got)
	}
	if err := got.Unmarshal([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello error = %v", err)
	}
	bad := h.Marshal()
	bad[0] = 99
	if err := got.Unmarshal(bad); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad role error = %v", err)
	}
}

func TestChallengeAndAuthRoundTrip(t *testing.T) {
	c := Challenge{
		PubKey:    bytes.Repeat([]byte{2}, 32),
		Signature: bytes.Repeat([]byte{3}, 64),
		Nonce:     bytes.Repeat([]byte{4}, 32),
	}
	var gotC Challenge
	if err := gotC.Unmarshal(c.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Signature, c.Signature) || !bytes.Equal(gotC.Nonce, c.Nonce) {
		t.Fatal("challenge round trip mismatch")
	}
	if err := gotC.Unmarshal(make([]byte, 10)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short challenge error = %v", err)
	}

	a := AuthResponse{PubKey: c.PubKey, Signature: c.Signature}
	var gotA AuthResponse
	if err := gotA.Unmarshal(a.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA.PubKey, a.PubKey) {
		t.Fatal("auth round trip mismatch")
	}
	if err := gotA.Unmarshal(make([]byte, 5)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short auth error = %v", err)
	}
}

func TestGetStopFeedbackErrorRoundTrip(t *testing.T) {
	g := Get{FileID: 0xFEED, Limit: 7}
	var gotG Get
	if err := gotG.Unmarshal(g.Marshal()); err != nil || gotG != g {
		t.Fatalf("get round trip: %+v, %v", gotG, err)
	}
	if err := gotG.Unmarshal(make([]byte, 3)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short get error = %v", err)
	}

	s := Stop{FileID: 0xBEEF}
	var gotS Stop
	if err := gotS.Unmarshal(s.Marshal()); err != nil || gotS != s {
		t.Fatalf("stop round trip: %+v, %v", gotS, err)
	}
	if err := gotS.Unmarshal(make([]byte, 3)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short stop error = %v", err)
	}

	fb := Feedback{Entries: []FeedbackEntry{{PeerFingerprint: "abc", Bytes: 100}}}
	blob, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var gotF Feedback
	if err := gotF.Unmarshal(blob); err != nil {
		t.Fatal(err)
	}
	if len(gotF.Entries) != 1 || gotF.Entries[0].Bytes != 100 {
		t.Fatalf("feedback round trip: %+v", gotF)
	}
	if err := gotF.Unmarshal([]byte("{bad json")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad feedback error = %v", err)
	}

	e := ErrorMsg{Code: CodeInternal, Reason: "boom"}
	var gotE ErrorMsg
	if err := gotE.Unmarshal(e.Marshal()); err != nil || gotE != e {
		t.Fatalf("error round trip: %+v, %v", gotE, err)
	}
	if err := gotE.Unmarshal([]byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short error frame error = %v", err)
	}
}

// handshakePair runs both handshake halves over an in-memory duplex
// connection and returns their results.
func handshakePair(t *testing.T, initiator, responder *auth.Identity,
	initiatorTrust, responderTrust *auth.TrustSet) (initErr, respErr error) {
	t.Helper()
	cConn, sConn := net.Pipe()
	defer sConn.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := ResponderHandshake(NewFrameReader(sConn), NewFrameWriter(sConn), responder, responderTrust)
		done <- err
	}()
	_, initErr = InitiatorHandshake(NewFrameReader(cConn), NewFrameWriter(cConn), initiator, RoleUser, initiatorTrust)
	// Close the initiator side so an aborted handshake unblocks the
	// responder (net.Pipe is fully synchronous).
	cConn.Close()
	respErr = <-done
	return initErr, respErr
}

func TestHandshakeMutualSuccess(t *testing.T) {
	user, err := auth.IdentityFromSeed(bytes.Repeat([]byte{5}, 32))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := auth.IdentityFromSeed(bytes.Repeat([]byte{6}, 32))
	if err != nil {
		t.Fatal(err)
	}
	initErr, respErr := handshakePair(t, user, peer,
		auth.NewTrustSet(peer.Public()), auth.NewTrustSet(user.Public()))
	if initErr != nil || respErr != nil {
		t.Fatalf("handshake failed: init=%v resp=%v", initErr, respErr)
	}
}

func TestHandshakeRejectsUntrustedInitiator(t *testing.T) {
	user, err := auth.IdentityFromSeed(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := auth.IdentityFromSeed(bytes.Repeat([]byte{8}, 32))
	if err != nil {
		t.Fatal(err)
	}
	other, err := auth.IdentityFromSeed(bytes.Repeat([]byte{9}, 32))
	if err != nil {
		t.Fatal(err)
	}
	initErr, respErr := handshakePair(t, user, peer,
		nil, auth.NewTrustSet(other.Public()))
	if respErr == nil {
		t.Error("responder accepted untrusted initiator")
	}
	if initErr == nil {
		t.Error("initiator did not observe rejection")
	}
}

func TestHandshakeRejectsUntrustedResponder(t *testing.T) {
	user, err := auth.IdentityFromSeed(bytes.Repeat([]byte{10}, 32))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := auth.IdentityFromSeed(bytes.Repeat([]byte{11}, 32))
	if err != nil {
		t.Fatal(err)
	}
	other, err := auth.IdentityFromSeed(bytes.Repeat([]byte{12}, 32))
	if err != nil {
		t.Fatal(err)
	}
	initErr, _ := handshakePair(t, user, peer,
		auth.NewTrustSet(other.Public()), auth.NewTrustSet(user.Public()))
	if !errors.Is(initErr, auth.ErrUntrusted) {
		t.Errorf("initiator error = %v, want ErrUntrusted", initErr)
	}
}

func TestHandshakeKeyMismatch(t *testing.T) {
	// An initiator that HELLOs with one key but AUTHs with another must
	// be rejected even if both keys are individually trusted.
	user, err := auth.IdentityFromSeed(bytes.Repeat([]byte{13}, 32))
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := auth.IdentityFromSeed(bytes.Repeat([]byte{14}, 32))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := auth.IdentityFromSeed(bytes.Repeat([]byte{15}, 32))
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := ResponderHandshake(NewFrameReader(sConn), NewFrameWriter(sConn), peer,
			auth.NewTrustSet(user.Public(), imposter.Public()))
		done <- err
	}()
	fr, fw := NewFrameReader(cConn), NewFrameWriter(cConn)
	// Manual initiator: hello as user, auth as imposter.
	nonce, err := auth.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Role: RoleUser, PubKey: user.Public(), Nonce: nonce}
	if err := fw.WriteFrame(TypeHello, hello.Marshal()); err != nil {
		t.Fatal(err)
	}
	b, err := fr.Expect(TypeChallenge)
	if err != nil {
		t.Fatal(err)
	}
	var ch Challenge
	err = ch.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := imposter.Respond(ch.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	resp := AuthResponse{PubKey: imposter.Public(), Signature: sig}
	if err := fw.WriteFrame(TypeAuthResponse, resp.Marshal()); err != nil {
		t.Fatal(err)
	}
	// net.Pipe writes are synchronous: read the responder's error frame
	// before collecting its result so its WriteError does not deadlock.
	if _, err := fr.Expect(TypeAuthOK); err == nil {
		t.Error("initiator received AUTH_OK despite key mismatch")
	}
	if respErr := <-done; respErr == nil {
		t.Error("responder accepted hello/auth key mismatch")
	}
}

func TestFileListRoundTrip(t *testing.T) {
	l := FileList{Files: []FileEntry{{FileID: 7, Messages: 3}, {FileID: 9, Messages: 1}}}
	blob, err := l.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got FileList
	if err := got.Unmarshal(blob); err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != 2 || got.Files[0].FileID != 7 || got.Files[1].Messages != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if err := got.Unmarshal([]byte("{bad")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad list error = %v", err)
	}
}

func TestRemoteErrorString(t *testing.T) {
	e := &RemoteError{Code: CodeUnknownFile, Reason: "gone"}
	if got := e.Error(); !strings.Contains(got, "gone") || !strings.Contains(got, "2") {
		t.Errorf("Error() = %q", got)
	}
}
