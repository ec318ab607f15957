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
// chunks. Both versions must have the handle's original size; resizes
// need a fresh ShareFile.
func (s *System) UpdateFile(ctx context.Context, h *Handle, secret, oldData, newData []byte) (*UpdateResult, error) {
	if h == nil || len(h.Peers) == 0 {
		return nil, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	if int64(len(oldData)) != h.Manifest.TotalSize {
		return nil, fmt.Errorf("%w: old version is %d bytes, manifest says %d",
			ErrBadHandle, len(oldData), h.Manifest.TotalSize)
	}
	changed, err := chunk.ChangedChunks(oldData, newData, h.Manifest.Plan.ChunkSize)
	if err != nil {
		return nil, err
	}
	result := &UpdateResult{ChangedChunks: changed}
	if len(changed) == 0 {
		return result, nil
	}
	oldChunks := chunk.Split(oldData, h.Manifest.Plan.ChunkSize)
	newChunks := chunk.Split(newData, h.Manifest.Plan.ChunkSize)
	if h.Manifest.ContentMD5 != "" {
		h.Manifest.ContentMD5 = chunk.ContentDigest(newData)
	}

	for _, idx := range changed {
		info := &h.Manifest.Chunks[idx]
		params, err := info.Params(h.Manifest.Plan)
		if err != nil {
			return nil, err
		}
		delta, err := rlnc.NewDeltaEncoder(params, info.FileID, secret, oldChunks[idx], newChunks[idx])
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", idx, err)
		}
		newEnc, err := rlnc.NewEncoder(params, info.FileID, secret, newChunks[idx])
		if err != nil {
			return nil, err
		}
		// Payload buffers reused across peers: one per delta of a batch
		// (Patch needs them all live) plus one for the digest refresh.
		cb := params.ChunkBytes()
		bufs := make([]byte, (params.K+1)*cb)
		fresh := rlnc.Message{FileID: info.FileID, Payload: bufs[params.K*cb:]}
		for peerIdx, addr := range h.Peers {
			// Each peer holds the batch its index was minted with; batch
			// message-ids depend only on (file-id, secret), so the owner
			// can recompute them without contacting anyone — or minting
			// the old version.
			ids, err := newEnc.BatchIDs(peerIdx, params.K)
			if err != nil {
				return nil, fmt.Errorf("core: chunk %d peer %d: %w", idx, peerIdx, err)
			}
			deltas := make([]*rlnc.Message, 0, len(ids))
			for _, id := range ids {
				payload := bufs[len(deltas)*cb:][:cb]
				delta.DeltaInto(id, payload)
				if gf.IsZeroSlice(payload) {
					continue // the stored message is already the new version's
				}
				deltas = append(deltas, &rlnc.Message{FileID: info.FileID, MessageID: id, Payload: payload})
				result.BytesSent += int64(cb + rlnc.MessageHeaderBytes)
			}
			if len(deltas) == 0 {
				continue
			}
			if err := s.client.Patch(ctx, addr, deltas); err != nil {
				return nil, fmt.Errorf("core: patch chunk %d at %s: %w", idx, addr, err)
			}
			result.MessagesPatched += len(deltas)
			// Refresh the digests the manifest publishes for this peer's
			// patched messages.
			for _, d := range deltas {
				fresh.MessageID = d.MessageID
				newEnc.MessageInto(d.MessageID, fresh.Payload)
				info.Digests[d.MessageID] = fresh.Digest()
			}
		}
	}
	return result, nil
}
