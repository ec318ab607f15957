package core

// File modification (Sec. VI-A): in-place edits propagate as per-chunk
// delta messages patched into the peers' stores, instead of a full
// re-share. Only the changed generations cost any upload bandwidth.

import (
	"context"
	"fmt"

	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// UpdateResult summarizes an in-place update.
type UpdateResult struct {
	// ChangedChunks lists the generation indexes that differed.
	ChangedChunks []int

	// MessagesPatched counts delta messages pushed across all peers.
	MessagesPatched int

	// BytesSent is the total delta traffic (payload + headers).
	BytesSent int64
}

// UpdateFile pushes the difference between oldData and newData to every
// peer in the handle and refreshes the manifest digests for the changed
// chunks: a peer's message digests as that peer acknowledges, a chunk's
// Sum once every peer has. Both versions must have the handle's
// original size; resizes need a fresh ShareFile. A handle written
// before chunks carried sums leaves a successful update with one on
// every chunk and no ContentMD5.
func (s *System) UpdateFile(ctx context.Context, h *Handle, secret, oldData, newData []byte) (*UpdateResult, error) {
	if h == nil || len(h.Peers) == 0 {
		return nil, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	if int64(len(oldData)) != h.Manifest.TotalSize {
		return nil, fmt.Errorf("%w: old version is %d bytes, manifest says %d",
			ErrBadHandle, len(oldData), h.Manifest.TotalSize)
	}
	m := &h.Manifest
	changed, err := chunk.ChangedChunks(oldData, newData, m.Plan.ChunkSize)
	if err != nil {
		return nil, err
	}
	// Valid means chunks and pieces pair up, and sums are on all or none.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	result := &UpdateResult{ChangedChunks: changed}
	if err := s.patchChunks(ctx, h, secret, oldData, newData, result); err != nil {
		return nil, err
	}
	if !m.Chunks[0].HasSum() {
		for i, piece := range chunk.Split(newData, m.Plan.ChunkSize) {
			m.Chunks[i].Sum = m.Chunks[i].SumOf(m.Plan, piece)
		}
		m.ContentMD5 = ""
	}
	return result, nil
}

// patchChunks pushes the deltas of result.ChangedChunks to every peer
// and, peer by peer as each acknowledges, refreshes the digests the
// manifest publishes for that peer's patched messages; a chunk that
// carries a Sum gets the new version's once its last peer has.
func (s *System) patchChunks(ctx context.Context, h *Handle, secret, oldData, newData []byte, result *UpdateResult) error {
	oldChunks := chunk.Split(oldData, h.Manifest.Plan.ChunkSize)
	newChunks := chunk.Split(newData, h.Manifest.Plan.ChunkSize)
	for _, idx := range result.ChangedChunks {
		info := &h.Manifest.Chunks[idx]
		params, err := info.Params(h.Manifest.Plan)
		if err != nil {
			return err
		}
		delta, err := rlnc.NewDeltaEncoder(params, info.FileID, secret, oldChunks[idx], newChunks[idx])
		if err != nil {
			return fmt.Errorf("core: chunk %d: %w", idx, err)
		}
		newEnc, err := rlnc.NewEncoder(params, info.FileID, secret, newChunks[idx])
		if err != nil {
			return err
		}
		// One payload buffer per message of a batch, reused across
		// peers: first the deltas (Patch needs them all live), then,
		// once they are acknowledged, the new version's messages.
		cb := params.ChunkBytes()
		bufs := make([]byte, params.K*cb)
		store := make([]rlnc.Message, params.K)
		digests := make([]rlnc.Digest, params.K)
		for peerIdx, addr := range h.Peers {
			// Each peer holds the batch its index was minted with; batch
			// message-ids depend only on (file-id, secret), so the owner
			// can recompute them without contacting anyone — or minting
			// the old version.
			ids, err := newEnc.BatchIDs(peerIdx, params.K)
			if err != nil {
				return fmt.Errorf("core: chunk %d peer %d: %w", idx, peerIdx, err)
			}
			msgs := make([]*rlnc.Message, 0, len(ids))
			for _, id := range ids {
				payload := bufs[len(msgs)*cb:][:cb]
				delta.DeltaInto(id, payload)
				if gf.IsZeroSlice(payload) {
					continue // the stored message is already the new version's
				}
				m := &store[len(msgs)]
				m.FileID, m.MessageID, m.Payload = info.FileID, id, payload
				msgs = append(msgs, m)
				result.BytesSent += int64(cb + rlnc.MessageHeaderBytes)
			}
			if len(msgs) == 0 {
				continue
			}
			if err := s.client.Patch(ctx, addr, msgs); err != nil {
				return fmt.Errorf("core: patch chunk %d at %s: %w", idx, addr, err)
			}
			result.MessagesPatched += len(msgs)
			for _, m := range msgs {
				newEnc.MessageInto(m.MessageID, m.Payload)
			}
			rlnc.DigestBatch(digests, msgs)
			for j, m := range msgs {
				info.Digests[m.MessageID] = digests[j]
			}
		}
		if info.HasSum() {
			info.Sum = info.SumOf(h.Manifest.Plan, newChunks[idx])
		}
	}
	return nil
}
