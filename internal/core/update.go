package core

// File modification (Sec. VI-A): in-place edits propagate as per-chunk
// delta messages patched into the peers' stores, instead of a full
// re-share. Only the changed generations cost any upload bandwidth.

import (
	"context"
	"fmt"

	"asymshare/internal/chunk"
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
// holder of each changed chunk, all holders side by side through the
// write path, and refreshes the manifest for the changed chunks: a
// holder's message digests as that holder acknowledges, a chunk's Sum
// once every holder has. Both versions must have the handle's original
// size; resizes need a fresh ShareFile. A handle written before chunks
// carried sums leaves a successful update with one on every chunk and
// no ContentMD5.
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
	oldChunks := chunk.Split(oldData, m.Plan.ChunkSize)
	newChunks := chunk.Split(newData, m.Plan.ChunkSize)
	w := &writeSet{
		m:      m,
		encs:   make([]*rlnc.Encoder, len(m.Chunks)),
		deltas: make([]*rlnc.DeltaEncoder, len(m.Chunks)),
	}
	if m.Chunks[0].HasSum() {
		w.sums = make([]rlnc.Digest, len(m.Chunks))
	}
	var dests destSet
	var jobs []shareJob
	for _, i := range changed {
		info := &m.Chunks[i]
		params, err := info.Params(m.Plan)
		if err != nil {
			return nil, err
		}
		if w.deltas[i], err = rlnc.NewDeltaEncoder(params, info.FileID, secret, oldChunks[i], newChunks[i]); err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		if w.encs[i], err = rlnc.NewEncoder(params, info.FileID, secret, newChunks[i]); err != nil {
			return nil, err
		}
		if w.sums != nil {
			w.sums[i] = info.SumOf(m.Plan, newChunks[i])
		}
		// Each holder keeps the batch its rank was minted with; batch
		// message-ids depend only on (file-id, secret), so the owner
		// recomputes them without contacting anyone — or minting the
		// old version.
		for rank, addr := range h.PeersForChunk(i) {
			jobs = append(jobs, shareJob{dest: dests.of(addr), chunk: i, rank: rank, patch: true})
		}
	}
	result := &UpdateResult{ChangedChunks: changed}
	result.MessagesPatched, result.BytesSent, err = w.stream(ctx, len(dests.addrs), jobs, s.uploadSinks(dests.addrs))
	if err != nil {
		return nil, err
	}
	if !m.Chunks[0].HasSum() {
		for i, piece := range newChunks {
			m.Chunks[i].Sum = m.Chunks[i].SumOf(m.Plan, piece)
		}
		m.ContentMD5 = ""
	}
	return result, nil
}
