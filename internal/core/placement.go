package core

// Ring placement: instead of storing every generation on every peer,
// ShareFilePlaced stores each generation on the r ring members closest
// to its file-id (PAST-style). Storage per peer drops from the whole
// file to ~r/n of it while any single responsible peer still suffices
// to decode its generations (batch invertibility).

import (
	"context"
	"fmt"

	"asymshare/internal/chunk"
	"asymshare/internal/ring"
)

// PeersForChunk returns the addresses holding chunk i: the placed set
// when the handle carries one, otherwise all peers.
func (h *Handle) PeersForChunk(i int) []string {
	if i < len(h.ChunkPeers) && len(h.ChunkPeers[i]) > 0 {
		return h.ChunkPeers[i]
	}
	return h.Peers
}

// ShareFilePlaced encodes data and disseminates each generation to the
// `replicas` ring members responsible for its file-id. The returned
// handle records the per-chunk placement, so fetch, audit and repair
// contact only the right peers.
func (s *System) ShareFilePlaced(ctx context.Context, name string, data []byte,
	r *ring.Ring, replicas int) (*ShareResult, error) {
	if r == nil || r.Size() == 0 {
		return nil, fmt.Errorf("%w: empty ring", ErrBadHandle)
	}
	if replicas <= 0 {
		replicas = 2
	}
	secret, err := chunk.NewSecret()
	if err != nil {
		return nil, err
	}
	baseID, err := chunk.NewFileID()
	if err != nil {
		return nil, err
	}
	share, err := chunk.BuildShare(name, data, s.plan, baseID, secret)
	if err != nil {
		return nil, err
	}

	chunkPeers := make([][]string, share.NumChunks())
	var dests destSet
	var jobs []shareJob
	for i := 0; i < share.NumChunks(); i++ {
		chunkPeers[i] = r.Place(share.Manifest.Chunks[i].FileID, replicas)
		for rank, addr := range chunkPeers[i] {
			jobs = append(jobs, shareJob{dest: dests.of(addr), chunk: i, rank: rank})
		}
	}
	result := &ShareResult{Secret: secret}
	result.MessagesSent, result.BytesSent, err = streamShare(ctx, s.client, share, dests.addrs, jobs)
	if err != nil {
		return nil, err
	}
	result.Handle = Handle{
		Manifest:   share.Manifest,
		Peers:      r.Members(),
		ChunkPeers: chunkPeers,
	}
	return result, nil
}
