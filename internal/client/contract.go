package client

// Storage-contract RPCs: the owner side of the capacity negotiation.
// Each call is one short exchange — propose/renew/release a contract,
// or list the obligations a peer holds for us — over the standard
// authenticated framing. A peer that refuses (over advertised
// capacity, unknown contract, not the owner) answers with a typed
// error frame, which surfaces as *wire.RemoteError so callers can
// branch on the code and try the next candidate.

import (
	"context"

	"asymshare/internal/wire"
)

// ProposeContract asks the peer at addr to accept a storage obligation
// and returns its grant along with the peer's key fingerprint (the
// ledger identity to credit when the obligation is honored).
func (c *Client) ProposeContract(ctx context.Context, addr string, p wire.ContractPropose) (wire.ContractGrant, string, error) {
	var grant wire.ContractGrant
	fingerprint, err := c.roundTrip(ctx, addr, "propose contract to", wire.TypeContractPropose, p.Marshal(),
		wire.TypeContractGrant, grant.Unmarshal)
	if err != nil {
		return wire.ContractGrant{}, "", err
	}
	return grant, fingerprint, nil
}

// RenewContract extends an accepted contract's term.
func (c *Client) RenewContract(ctx context.Context, addr string, r wire.ContractRenew) (wire.ContractGrant, error) {
	var grant wire.ContractGrant
	_, err := c.roundTrip(ctx, addr, "renew contract with", wire.TypeContractRenew, r.Marshal(),
		wire.TypeContractGrant, grant.Unmarshal)
	return grant, err
}

// ReleaseContract ends an obligation early, freeing the peer's
// capacity.
func (c *Client) ReleaseContract(ctx context.Context, addr string, r wire.ContractRelease) (wire.ContractGrant, error) {
	var grant wire.ContractGrant
	_, err := c.roundTrip(ctx, addr, "release contract with", wire.TypeContractRelease, r.Marshal(),
		wire.TypeContractGrant, grant.Unmarshal)
	return grant, err
}

// ListContracts returns the peer's capacity line and the contracts it
// holds for this client's identity.
func (c *Client) ListContracts(ctx context.Context, addr string) (wire.ContractInfo, error) {
	var info wire.ContractInfo
	_, err := c.roundTrip(ctx, addr, "list contracts of", wire.TypeContractList, nil,
		wire.TypeContractInfo, info.Unmarshal)
	return info, err
}
