package core

// Contract negotiation and repair orchestration: the owner-side glue
// between a share handle (where batches were placed), the contract
// subsystem (explicit, capacity-checked storage obligations), and the
// proactive repair daemon. A share starts life as informal placements;
// NegotiateContracts upgrades each (peer, chunk) obligation into a
// signed-for contract recorded in a durable holdings set, and
// NewRepairDaemon builds the daemon that keeps those contracts — and
// the rank-margin watermark they imply — healthy without the owner in
// the loop.

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/contract"
	"asymshare/internal/dht"
	"asymshare/internal/repair"
	"asymshare/internal/wire"
)

// NegotiateContracts proposes one storage contract per (peer, chunk)
// obligation in the handle and records each grant as a holding in set.
// Obligations already covered by a holding are skipped, so the call is
// idempotent and can resume after a crash (the set replays its
// journal). Returns the number of contracts newly accepted; a refusal
// or unreachable peer aborts with the partial count.
func (s *System) NegotiateContracts(ctx context.Context, h *Handle, set *contract.Set, ttl time.Duration) (int, error) {
	if h == nil || len(h.Peers) == 0 {
		return 0, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	if set == nil {
		return 0, fmt.Errorf("%w: nil contract set", ErrBadHandle)
	}
	if ttl <= 0 {
		ttl = repair.DefaultTTL
	}
	accepted := 0
	for _, addr := range h.Peers {
		for i := range h.Manifest.Chunks {
			rank := h.batchRank(addr, i)
			if rank < 0 || set.Has(addr, i) {
				continue
			}
			t, err := audit.TargetFor(&h.Manifest, i, rank, addr)
			if err != nil {
				return accepted, err
			}
			messages := len(t.Digests)
			if messages == 0 {
				continue // shared before digests were recorded
			}
			bytes := int64(messages) * int64(t.MessageBytes)
			id, err := newContractID()
			if err != nil {
				return accepted, err
			}
			ttlSecs := int64(ttl / time.Second)
			if ttlSecs < 1 {
				ttlSecs = 1
			}
			grant, fp, err := s.client.ProposeContract(ctx, addr, wire.ContractPropose{
				ContractID: id,
				FileID:     t.FileID,
				Messages:   uint32(messages),
				Bytes:      uint64(bytes),
				TTLSeconds: uint32(ttlSecs),
			})
			if err != nil {
				return accepted, fmt.Errorf("core: negotiate contract with %s: %w", addr, err)
			}
			err = set.Add(contract.Holding{
				ContractID: id,
				Addr:       addr,
				Peer:       fp,
				Chunk:      i,
				Rank:       rank,
				Messages:   messages,
				Bytes:      bytes,
				Expires:    time.Unix(grant.ExpiresUnix, 0),
			})
			if err != nil {
				return accepted, err
			}
			accepted++
		}
	}
	return accepted, nil
}

// NewRepairDaemon builds a proactive repair daemon over this system's
// client for the given share. The caller fills the policy knobs of cfg
// (Target, TTL, Interval, Peers, Persist, ...); the share plumbing —
// manifest, secret, data, holdings, client — is wired here so it
// cannot disagree with the handle.
func (s *System) NewRepairDaemon(h *Handle, secret, data []byte, set *contract.Set, cfg repair.Config) (*repair.Daemon, error) {
	if h == nil {
		return nil, fmt.Errorf("%w: nil handle", ErrBadHandle)
	}
	cfg.Manifest = &h.Manifest
	cfg.Secret = secret
	cfg.Data = data
	cfg.Contracts = set
	cfg.Client = s.client
	return repair.New(cfg)
}

// DHTPeerSource adapts a DHT node's routing table into the repair
// daemon's replacement-candidate source: up to n uniformly random
// contacts that advertise a serving address. Because node ids are
// address hashes, the sample is near-uniform over the live swarm —
// the discovery liveness signal the daemon leans on (a contact still
// in the table answered an RPC recently; the keyed probe then
// verifies it for real before any batch is placed).
func DHTPeerSource(node *dht.Node) repair.PeerSource {
	return func(_ context.Context, n int) []string {
		var addrs []string
		for _, c := range node.RandomContacts(n) {
			if c.Serve != "" {
				addrs = append(addrs, c.Serve)
			}
		}
		return addrs
	}
}

// newContractID draws a random non-zero contract id.
func newContractID() (uint64, error) {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("core: contract id: %w", err)
		}
		if id := binary.BigEndian.Uint64(buf[:]); id != 0 {
			return id, nil
		}
	}
}
