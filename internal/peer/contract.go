package peer

// Contract frame handlers: the storage-peer side of the capacity
// negotiation. Accepting an obligation claims the file-id for the
// proposing owner (same rule as a first PUT), and every mutation is
// answered with a grant frame or a typed error — over-capacity and
// unknown-contract refusals carry their own codes so owners can branch
// without string matching.

import (
	"errors"
	"fmt"
	"time"

	"asymshare/internal/contract"
	"asymshare/internal/fairshare"
	"asymshare/internal/wire"
)

// handleContractPropose admits (or refuses) one storage obligation.
func (n *Node) handleContractPropose(lw *connWriter, client fairshare.ID, payload []byte) error {
	var p wire.ContractPropose
	if err := p.Unmarshal(payload); err != nil {
		_ = lw.writeErrorFrame(wire.CodeBadRequest, "malformed contract proposal")
		return err
	}
	// An obligation for a file-id binds it to the proposing owner just
	// like a first upload, so a stranger cannot contract storage for —
	// and later overwrite — someone else's generation.
	if !n.claimFile(p.FileID, client) {
		_ = lw.writeErrorFrame(wire.CodeNotPermitted, "file owned by another user")
		return fmt.Errorf("contract for file %d owned by another user", p.FileID)
	}
	c := contract.Contract{
		ID:       p.ContractID,
		FileID:   p.FileID,
		Owner:    string(client),
		Messages: int(p.Messages),
		Bytes:    int64(p.Bytes),
		Expires:  time.Now().Add(time.Duration(p.TTLSeconds) * time.Second),
	}
	if err := n.book.Accept(c); err != nil {
		switch {
		case errors.Is(err, contract.ErrOverCapacity):
			_ = lw.writeErrorFrame(wire.CodeOverCapacity, "over advertised capacity")
		case errors.Is(err, contract.ErrNotOwner):
			_ = lw.writeErrorFrame(wire.CodeNotPermitted, "contract owned by another user")
		default:
			_ = lw.writeErrorFrame(wire.CodeBadRequest, "bad contract proposal")
		}
		return err
	}
	n.log.Debug("contract accepted", "client", client, "contract", c.ID,
		"file", c.FileID, "bytes", c.Bytes, "expires", c.Expires)
	return lw.writeFrame(wire.TypeContractGrant, n.grantFor(c.ID, c.Expires).Marshal())
}

// handleContractRenew extends an accepted obligation's term.
func (n *Node) handleContractRenew(lw *connWriter, client fairshare.ID, payload []byte) error {
	var r wire.ContractRenew
	if err := r.Unmarshal(payload); err != nil {
		_ = lw.writeErrorFrame(wire.CodeBadRequest, "malformed contract renewal")
		return err
	}
	expires := time.Now().Add(time.Duration(r.TTLSeconds) * time.Second)
	c, err := n.book.Renew(r.ContractID, string(client), expires)
	if err != nil {
		n.refuseContract(lw, err)
		return err
	}
	return lw.writeFrame(wire.TypeContractGrant, n.grantFor(c.ID, c.Expires).Marshal())
}

// handleContractRelease ends an obligation early, freeing capacity.
// The grant answers with a zero expiry to mark the contract gone.
func (n *Node) handleContractRelease(lw *connWriter, client fairshare.ID, payload []byte) error {
	var r wire.ContractRelease
	if err := r.Unmarshal(payload); err != nil {
		_ = lw.writeErrorFrame(wire.CodeBadRequest, "malformed contract release")
		return err
	}
	c, err := n.book.Release(r.ContractID, string(client))
	if err != nil {
		n.refuseContract(lw, err)
		return err
	}
	return lw.writeFrame(wire.TypeContractGrant, n.grantFor(c.ID, time.Unix(0, 0)).Marshal())
}

// handleContractList reports the capacity line and the requesting
// owner's contracts — only theirs; one tenant cannot enumerate
// another's placements.
func (n *Node) handleContractList(lw *connWriter, client fairshare.ID) error {
	info := wire.ContractInfo{
		CapacityBytes: uint64(n.book.Capacity()),
		UsedBytes:     uint64(n.book.Used()),
	}
	for _, c := range n.book.ContractsOf(string(client)) {
		info.Contracts = append(info.Contracts, wire.ContractEntry{
			ContractID:  c.ID,
			FileID:      c.FileID,
			Messages:    uint32(c.Messages),
			Bytes:       uint64(c.Bytes),
			ExpiresUnix: c.Expires.Unix(),
		})
	}
	blob, err := info.Marshal()
	if err != nil {
		return err
	}
	return lw.writeFrame(wire.TypeContractInfo, blob)
}

// refuseContract maps a book error to its typed wire error frame,
// following the WriteError contract (best-effort; the caller still
// treats the exchange as failed and closes the connection).
func (n *Node) refuseContract(lw *connWriter, err error) {
	switch {
	case errors.Is(err, contract.ErrUnknown):
		_ = lw.writeErrorFrame(wire.CodeUnknownContract, "unknown contract")
	case errors.Is(err, contract.ErrNotOwner):
		_ = lw.writeErrorFrame(wire.CodeNotPermitted, "contract owned by another user")
	case errors.Is(err, contract.ErrOverCapacity):
		_ = lw.writeErrorFrame(wire.CodeOverCapacity, "over advertised capacity")
	default:
		_ = lw.writeErrorFrame(wire.CodeBadRequest, "bad contract request")
	}
}

// grantFor snapshots the book's accounting into a grant frame, letting
// the owner steer future placements without an extra round-trip.
func (n *Node) grantFor(id uint64, expires time.Time) *wire.ContractGrant {
	return &wire.ContractGrant{
		ContractID:    id,
		ExpiresUnix:   expires.Unix(),
		UsedBytes:     uint64(n.book.Used()),
		CapacityBytes: uint64(n.book.Capacity()),
	}
}
