// Package repair contains the shared re-encode + re-disseminate engine
// and the proactive repair daemon. The engine is the single code path
// for both reactive repair (core.RepairFailed, after a failed keyed
// audit) and proactive repair (the Daemon, before decodability is
// threatened): given the original data and a list of (peer, chunk,
// rank) tasks it re-mints deterministic RLNC batches and uploads them.
// Because every message is a pure function of (file-id, message-id,
// secret), repair needs no inter-peer transfer and no decode — the
// owner regenerates any batch at will, the paper's "geographic data
// robustness" made operational.
package repair

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
)

// batchStride mirrors the encoder's per-rank message-id stride: batch
// rank r mints ids in [r·2^32, (r+1)·2^32), so a chunk's digest map
// partitions by id/stride into per-batch obligations.
const batchStride = uint64(1) << 32

// messageOverhead is the serialized header size of one rlnc.Message,
// counted alongside the payload in repair-traffic accounting.
const messageOverhead = 16

// Uploader is the slice of the client the engine needs.
type Uploader interface {
	Disseminate(ctx context.Context, addr string, msgs []*rlnc.Message) error
}

// Task names one batch to re-mint: the batch of rank Rank for chunk
// Chunk, destined for Addr. Count caps the batch size (0 means the
// chunk's full k). Fresh marks a batch minted at a never-used rank —
// its message digests are new and must be recorded in the manifest, or
// fetch authentication would reject the replacement replica.
type Task struct {
	Addr  string
	Chunk int
	Rank  int
	Count int
	Fresh bool
}

// Result tallies one engine run.
type Result struct {
	// Messages is how many messages were uploaded.
	Messages int

	// Bytes is the wire volume uploaded (payload + header).
	Bytes int64

	// DigestsAdded is how many fresh message digests were recorded
	// into the manifest (the caller should re-persist the handle when
	// this is non-zero).
	DigestsAdded int
}

// Engine re-mints and re-disseminates encoded batches against one
// manifest. The manifest is mutated when Fresh tasks mint new digests;
// a mutex serializes those writes so the daemon and reactive callers
// can share one engine.
type Engine struct {
	Manifest *chunk.Manifest
	Secret   []byte
	Uploader Uploader

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
	count := t.Count
	if count <= 0 || count > params.K {
		count = params.K
	}
	batch, err := enc.BatchForPeer(t.Rank, count)
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

// Rebuild runs a set of tasks: mint every batch, then upload them
// grouped per destination address (one connection per peer). Tasks for
// unknown chunk indexes are an error; a failed upload aborts with the
// partial Result so callers can report what landed.
func (e *Engine) Rebuild(ctx context.Context, data []byte, tasks []Task) (Result, error) {
	var res Result
	if len(tasks) == 0 {
		return res, nil
	}
	if int64(len(data)) != e.Manifest.TotalSize {
		return res, fmt.Errorf("repair: data is %d bytes, manifest says %d",
			len(data), e.Manifest.TotalSize)
	}
	pieces := chunk.Split(data, e.Manifest.Plan.ChunkSize)
	byAddr := make(map[string][]*rlnc.Message)
	fresh := make(map[string]int)
	for _, t := range tasks {
		if t.Chunk < 0 || t.Chunk >= len(pieces) {
			return res, fmt.Errorf("repair: chunk index %d out of range", t.Chunk)
		}
		batch, err := e.Mint(t, pieces[t.Chunk])
		if err != nil {
			return res, err
		}
		byAddr[t.Addr] = append(byAddr[t.Addr], batch...)
		if t.Fresh {
			fresh[t.Addr] += len(batch)
		}
	}
	addrs := make([]string, 0, len(byAddr))
	for addr := range byAddr {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		msgs := byAddr[addr]
		if err := e.Uploader.Disseminate(ctx, addr, msgs); err != nil {
			return res, fmt.Errorf("repair: disseminate to %s: %w", addr, err)
		}
		res.Messages += len(msgs)
		res.DigestsAdded += fresh[addr]
		for _, m := range msgs {
			res.Bytes += int64(len(m.Payload) + messageOverhead)
		}
	}
	return res, nil
}

// digestsForRank returns the subset of a chunk's digests minted for
// batch rank r.
func digestsForRank(all map[uint64]rlnc.Digest, rank int) map[uint64]rlnc.Digest {
	out := make(map[uint64]rlnc.Digest)
	for id, d := range all {
		if id/batchStride == uint64(rank) {
			out[id] = d
		}
	}
	return out
}

// maxMintedRank returns the highest batch rank any digest of the chunk
// was ever minted at, or -1 for none.
func maxMintedRank(digests map[uint64]rlnc.Digest) int {
	max := -1
	for id := range digests {
		if r := int(id / batchStride); r > max {
			max = r
		}
	}
	return max
}
