// Package repair is the proactive repair daemon and the minting it
// runs on. Because every message is a pure function of (file-id,
// message-id, secret), repair needs no inter-peer transfer and no
// decode — the owner regenerates any batch at will, the paper's
// "geographic data robustness" made operational. Reactive repair
// (core.System.Repair and RepairFailed) re-mints at the batches'
// original ranks and sends through core's write path; the daemon mints
// fresh batches at never-used ranks (Engine.Mint) and places each under
// its own contract.
package repair

import (
	"fmt"
	"sync"

	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
)

// Task names one batch to mint: the k messages of rank Rank for chunk
// Chunk, destined for Addr. Fresh marks a batch minted at a never-used
// rank — its message digests are new and must be recorded in the
// manifest, or fetch authentication would reject the replacement
// replica.
type Task struct {
	Addr  string
	Chunk int
	Rank  int
	Fresh bool
}

// Engine re-mints encoded batches against one manifest. The manifest is
// mutated when Fresh tasks mint new digests; a mutex serializes those
// writes.
type Engine struct {
	Manifest *chunk.Manifest
	Secret   []byte

	mu sync.Mutex // guards Manifest digest writes
}

// Mint regenerates the messages of one task from the chunk's original
// piece. Fresh digests are recorded into the manifest before the batch
// is returned: recording-before-upload is the crash-safe order, since
// an orphan digest is harmless but an uploaded batch without digests
// is unfetchable.
func (e *Engine) Mint(t Task, piece []byte) ([]*rlnc.Message, error) {
	if t.Chunk < 0 || t.Chunk >= len(e.Manifest.Chunks) {
		return nil, fmt.Errorf("repair: chunk index %d out of range", t.Chunk)
	}
	info := e.Manifest.Chunks[t.Chunk]
	params, err := info.Params(e.Manifest.Plan)
	if err != nil {
		return nil, err
	}
	enc, err := rlnc.NewEncoder(params, info.FileID, e.Secret, piece)
	if err != nil {
		return nil, err
	}
	batch, err := enc.BatchForPeer(t.Rank, params.K)
	if err != nil {
		return nil, fmt.Errorf("repair: batch rank %d chunk %d: %w", t.Rank, t.Chunk, err)
	}
	if t.Fresh {
		digests := make([]rlnc.Digest, len(batch))
		rlnc.DigestBatch(digests, batch)
		e.mu.Lock()
		for j, msg := range batch {
			info.Digests[msg.MessageID] = digests[j]
		}
		e.mu.Unlock()
	}
	return batch, nil
}
