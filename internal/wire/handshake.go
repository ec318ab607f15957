package wire

// Mutual challenge-response handshake (Fig. 4(b), transmissions 1-2,
// run in both directions):
//
//	initiator -> responder: HELLO     {role, pubI, nonceI}
//	responder -> initiator: CHALLENGE {pubR, sig_R(nonceI), nonceR}
//	initiator -> responder: AUTH      {pubI, sig_I(nonceR)}
//	responder -> initiator: AUTH_OK
//
// Each side verifies the other's signature and checks the key against
// its trust set before any content flows. Both halves run on the
// connection's own FrameReader and FrameWriter, which then carry the
// rest of the exchange.

import (
	"bytes"
	"crypto/ed25519"
	"fmt"

	"asymshare/internal/auth"
)

// InitiatorHandshake authenticates to a responder and verifies it in
// turn. trusted, if non-nil, restricts which responder keys are
// acceptable. It returns the responder's public key.
func InitiatorHandshake(fr *FrameReader, fw *FrameWriter, id *auth.Identity, role Role, trusted *auth.TrustSet) (ed25519.PublicKey, error) {
	nonce, err := auth.NewChallenge()
	if err != nil {
		return nil, err
	}
	hello := Hello{Role: role, PubKey: id.Public(), Nonce: nonce}
	if err := fw.WriteFrame(TypeHello, hello.Marshal()); err != nil {
		return nil, err
	}

	b, err := fr.Expect(TypeChallenge)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	var ch Challenge
	err = ch.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		return nil, err
	}
	responderKey := ed25519.PublicKey(ch.PubKey)
	if trusted != nil {
		if err := trusted.Check(responderKey, nonce, ch.Signature); err != nil {
			return nil, fmt.Errorf("wire: responder authentication: %w", err)
		}
	} else if err := auth.Verify(responderKey, nonce, ch.Signature); err != nil {
		return nil, fmt.Errorf("wire: responder authentication: %w", err)
	}

	sig, err := id.Respond(ch.Nonce)
	if err != nil {
		return nil, err
	}
	resp := AuthResponse{PubKey: id.Public(), Signature: sig}
	if err := fw.WriteFrame(TypeAuthResponse, resp.Marshal()); err != nil {
		return nil, err
	}
	ok, err := fr.Expect(TypeAuthOK)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake not accepted: %w", err)
	}
	ok.Release()
	return responderKey, nil
}

// ResponderHandshake runs the responder side. trusted, if non-nil,
// restricts which initiator keys are served. It returns the verified
// initiator key and its announced role.
func ResponderHandshake(fr *FrameReader, fw *FrameWriter, id *auth.Identity, trusted *auth.TrustSet) (ed25519.PublicKey, Role, error) {
	b, err := fr.Expect(TypeHello)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: handshake: %w", err)
	}
	var hello Hello
	err = hello.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		fw.WriteError(CodeBadRequest, "malformed hello")
		return nil, 0, err
	}

	sig, err := id.Respond(hello.Nonce)
	if err != nil {
		fw.WriteError(CodeBadRequest, "malformed nonce")
		return nil, 0, err
	}
	nonce, err := auth.NewChallenge()
	if err != nil {
		return nil, 0, err
	}
	ch := Challenge{PubKey: id.Public(), Signature: sig, Nonce: nonce}
	if err := fw.WriteFrame(TypeChallenge, ch.Marshal()); err != nil {
		return nil, 0, err
	}

	b, err = fr.Expect(TypeAuthResponse)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: handshake: %w", err)
	}
	var resp AuthResponse
	err = resp.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		fw.WriteError(CodeBadRequest, "malformed auth response")
		return nil, 0, err
	}
	if !bytes.Equal(resp.PubKey, hello.PubKey) {
		fw.WriteError(CodeAuthFailed, "key mismatch between hello and auth")
		return nil, 0, fmt.Errorf("%w: hello/auth key mismatch", ErrBadFrame)
	}
	initiatorKey := ed25519.PublicKey(resp.PubKey)
	if trusted != nil {
		if err := trusted.Check(initiatorKey, nonce, resp.Signature); err != nil {
			fw.WriteError(CodeAuthFailed, "authentication failed")
			return nil, 0, fmt.Errorf("wire: initiator authentication: %w", err)
		}
	} else if err := auth.Verify(initiatorKey, nonce, resp.Signature); err != nil {
		fw.WriteError(CodeAuthFailed, "authentication failed")
		return nil, 0, fmt.Errorf("wire: initiator authentication: %w", err)
	}
	if err := fw.WriteFrame(TypeAuthOK, nil); err != nil {
		return nil, 0, err
	}
	return initiatorKey, hello.Role, nil
}
