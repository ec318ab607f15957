package peer_test

// Audit-path protocol robustness: malformed or oversized challenges
// must come back as typed wire errors, never hang the connection, and
// well-formed challenges over missing data must be answered honestly.

import (
	"bytes"
	"errors"
	"testing"

	"asymshare/internal/auth"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

func auditChallenge(fileID uint64, ids ...uint64) wire.AuditChallenge {
	return wire.AuditChallenge{
		FileID:     fileID,
		Nonce:      bytes.Repeat([]byte{1}, wire.AuditNonceLen),
		Key:        bytes.Repeat([]byte{2}, wire.AuditKeyLen),
		MessageIDs: ids,
	}
}

// TestAuditMalformedChallengeYieldsRemoteError pins the contract of a
// connection-level ERROR frame: garbage on the audit path produces a
// typed *RemoteError on the client side, not a hang or a bare close.
func TestAuditMalformedChallengeYieldsRemoteError(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 220), Store: store.NewMemory()})
	fr, fw := dialAuthed(t, node, identity(t, 221))
	if err := fw.WriteFrame(wire.TypeAuditChallenge, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, err := fr.Expect(wire.TypeAuditResponse)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *wire.RemoteError", err)
	}
	if remote.Code != wire.CodeBadRequest {
		t.Errorf("code = %d, want CodeBadRequest", remote.Code)
	}
}

// TestAuditOversizedChallengeYieldsRemoteError sends a structurally
// valid frame whose sample count exceeds MaxAuditSample; the peer must
// refuse it with a typed error before allocating anything.
func TestAuditOversizedChallengeYieldsRemoteError(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 222), Store: store.NewMemory()})
	fr, fw := dialAuthed(t, node, identity(t, 223))
	ch := auditChallenge(1, make([]uint64, wire.MaxAuditSample+1)...)
	if err := fw.WriteFrame(wire.TypeAuditChallenge, ch.Marshal()); err != nil {
		t.Fatal(err)
	}
	_, err := fr.Expect(wire.TypeAuditResponse)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *wire.RemoteError", err)
	}
}

// TestAuditAnswersHeldAndMissing verifies an honest peer MACs what it
// holds and admits what it does not.
func TestAuditAnswersHeldAndMissing(t *testing.T) {
	st := store.NewMemory()
	msg := &rlnc.Message{FileID: 9, MessageID: 4, Payload: []byte("payload")}
	if err := st.Put(msg); err != nil {
		t.Fatal(err)
	}
	node := startPeer(t, peer.Config{Identity: identity(t, 224), Store: st})
	fr, fw := dialAuthed(t, node, identity(t, 225))

	ch := auditChallenge(9, 4, 77)
	if err := fw.WriteFrame(wire.TypeAuditChallenge, ch.Marshal()); err != nil {
		t.Fatal(err)
	}
	b, err := fr.Expect(wire.TypeAuditResponse)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.AuditResponse
	err = resp.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		t.Fatal(err)
	}
	if resp.FileID != 9 || len(resp.Proofs) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	held, missing := resp.Proofs[0], resp.Proofs[1]
	if !held.Present {
		t.Fatal("stored message reported absent")
	}
	digest := msg.Digest()
	if !auth.VerifyAuditMAC(ch.Key, 9, 4, digest[:], held.MAC) {
		t.Error("MAC over held message does not verify")
	}
	if missing.Present || len(missing.MAC) != 0 {
		t.Errorf("missing message reported present: %+v", missing)
	}

	// The connection survives an audit: counters advanced, BYE works.
	served, sampled, heldN := node.AuditStats()
	if served != 1 || sampled != 2 || heldN != 1 {
		t.Errorf("AuditStats = (%d,%d,%d), want (1,2,1)", served, sampled, heldN)
	}
	if err := fw.WriteFrame(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
}
