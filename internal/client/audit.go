package client

// Owner-side audit issuing: the client ships a keyed spot-check
// challenge to one storage peer and returns the raw response for
// internal/audit to verify. The client deliberately does no
// verification itself — the audit round holds the expected digests;
// the client is just authenticated transport.

import (
	"context"
	"fmt"

	"asymshare/internal/wire"
)

// Audit sends one challenge to a peer and returns its response along
// with the peer's key fingerprint (the identity to debit if the
// response does not verify). A malformed or refused exchange returns a
// typed error — *wire.RemoteError when the peer answered with an error
// frame — and never hangs: the context bounds the whole exchange.
func (c *Client) Audit(ctx context.Context, addr string, ch wire.AuditChallenge) (*wire.AuditResponse, string, error) {
	var resp wire.AuditResponse
	fingerprint, err := c.roundTrip(ctx, addr, "audit", wire.TypeAuditChallenge, ch.Marshal(), wire.TypeAuditResponse,
		func(b []byte) error {
			if err := resp.Unmarshal(b); err != nil {
				return err
			}
			if resp.FileID != ch.FileID {
				return fmt.Errorf("response for file %d, challenged %d", resp.FileID, ch.FileID)
			}
			return nil
		})
	if err != nil {
		return nil, fingerprint, err
	}
	return &resp, fingerprint, nil
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
