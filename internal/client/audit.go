package client

// Owner-side audit issuing: the client ships one storage peer's keyed
// spot-check challenges over one connection and returns the raw
// responses for internal/audit to verify. The client deliberately does
// no verification itself — the audit round holds the expected digests;
// the client is just authenticated transport.

import (
	"context"
	"fmt"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/wire"
)

// Audit sends chs to the peer at addr over one authenticated
// connection, one challenge at a time, and returns the responses to
// the challenges it got through — a prefix of chs, in order — with the
// peer's key fingerprint (the identity to debit if a response does not
// verify), known once the handshake completed. timeout bounds the dial
// and handshake, then each round trip; ctx bounds the whole exchange. A
// non-nil error says why the rest of chs went unanswered: a typed
// *wire.RemoteError when the peer refused with an error frame.
func (c *Client) Audit(ctx context.Context, addr string, chs []wire.AuditChallenge, timeout time.Duration) ([]*wire.AuditResponse, string, error) {
	dialCtx, cancel := context.WithTimeout(ctx, timeout)
	pc, err := c.dial(dialCtx, addr, wire.RoleUser)
	cancel()
	if err != nil {
		return nil, "", err
	}
	defer pc.conn.Close()
	fingerprint := auth.Fingerprint(pc.peerKey)
	resps := make([]*wire.AuditResponse, 0, len(chs))
	for i := range chs {
		resp, err := pc.audit(ctx, &chs[i], timeout)
		if err != nil {
			return resps, fingerprint, fmt.Errorf("client: audit %s: %w", addr, err)
		}
		resps = append(resps, resp)
	}
	_ = pc.fw.WriteFrame(wire.TypeBye, nil) // every answer is in; a lost BYE only ends the conn as the close does
	return resps, fingerprint, nil
}

// audit is one challenge's round trip. Once timeout passes or ctx ends
// the connection is closed under it, so a peer that goes mute costs one
// timeout, not forever.
func (pc peerConn) audit(ctx context.Context, ch *wire.AuditChallenge, timeout time.Duration) (*wire.AuditResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	defer context.AfterFunc(ctx, func() { pc.conn.Close() })()
	var resp wire.AuditResponse
	err := pc.fw.WriteFrame(wire.TypeAuditChallenge, ch.Marshal())
	if err == nil {
		var b *wire.Buf
		if b, err = pc.fr.Expect(wire.TypeAuditResponse); err == nil {
			err = resp.Unmarshal(b.Bytes())
			b.Release()
		}
	}
	if err == nil && resp.FileID != ch.FileID {
		err = fmt.Errorf("response for file %d, challenged %d", resp.FileID, ch.FileID)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err() // the I/O error is only the echo of our own close
		}
		return nil, err
	}
	return &resp, nil
}

// SendAuditVerdicts reports audit penalties to the user's own peer:
// each entry debits the named counterpart's ledger standing there. It
// rides the same FEEDBACK frame as receipt credits, so only the
// peer's owner is believed.
func (c *Client) SendAuditVerdicts(ctx context.Context, ownPeerAddr string, debits map[string]uint64) error {
	if len(debits) == 0 {
		return nil
	}
	return c.sendFeedback(ctx, ownPeerAddr, "audit verdicts to", debits, true)
}
