package core

// Replication audit and repair. Because every message is a
// deterministic function of (file-id, message-id, secret), the owner
// can regenerate any peer's batch from the original data at any time —
// so a peer that lost its store (disk failure, eviction) is repaired
// with a plain re-dissemination, no inter-peer transfer or decode
// needed. This realizes the paper's "geographic data robustness"
// operationally.

import (
	"context"
	"fmt"

	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
)

// AuditReport describes replication health for one handle.
type AuditReport struct {
	// MissingByPeer maps peer address to the number of (chunk, peer)
	// batches that are absent or incomplete there.
	MissingByPeer map[string]int

	// TotalBatches is the number of batches expected across all peers.
	TotalBatches int

	// incomplete lists, per peer address, the chunks MissingByPeer
	// counts: Repair's work list.
	incomplete map[string][]int
}

// Healthy reports whether every expected batch is fully present.
func (a *AuditReport) Healthy() bool {
	for _, n := range a.MissingByPeer {
		if n > 0 {
			return false
		}
	}
	return true
}

// batchRank returns the batch index addr was assigned for chunk i
// (its position among the chunk's holders), or -1.
func (h *Handle) batchRank(addr string, i int) int {
	for rank, a := range h.PeersForChunk(i) {
		if a == addr {
			return rank
		}
	}
	return -1
}

// Audit LISTs each peer's stored inventory once and checks it against
// the handle, respecting ring placement when present: a peer should
// hold k messages of every chunk placed on it.
func (s *System) Audit(ctx context.Context, h *Handle) (*AuditReport, error) {
	if h == nil || len(h.Peers) == 0 {
		return nil, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	report := &AuditReport{
		MissingByPeer: make(map[string]int, len(h.Peers)),
		incomplete:    make(map[string][]int),
	}
	for _, addr := range h.Peers {
		files, err := s.client.ListFiles(ctx, addr)
		if err != nil {
			return nil, fmt.Errorf("core: audit %s: %w", addr, err)
		}
		have := make(map[uint64]int, len(files))
		for _, f := range files {
			have[f.FileID] = f.Messages
		}
		for i, info := range h.Manifest.Chunks {
			if h.batchRank(addr, i) < 0 {
				continue
			}
			if have[info.FileID] < info.K {
				report.incomplete[addr] = append(report.incomplete[addr], i)
			}
			report.TotalBatches++
		}
		report.MissingByPeer[addr] = len(report.incomplete[addr])
	}
	return report, nil
}

// Repair re-disseminates every incomplete batch found by Audit,
// regenerating the messages from the original data. It returns the
// number of messages re-uploaded.
func (s *System) Repair(ctx context.Context, h *Handle, secret, data []byte) (int, error) {
	if h == nil || len(h.Peers) == 0 {
		return 0, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	if int64(len(data)) != h.Manifest.TotalSize {
		return 0, fmt.Errorf("%w: data is %d bytes, manifest says %d",
			ErrBadHandle, len(data), h.Manifest.TotalSize)
	}
	report, err := s.Audit(ctx, h)
	if err != nil {
		return 0, err
	}
	var dests destSet
	var jobs []shareJob
	for _, addr := range h.Peers {
		for _, i := range report.incomplete[addr] {
			jobs = append(jobs, shareJob{dest: dests.of(addr), chunk: i, rank: h.batchRank(addr, i)})
		}
	}
	n, err := s.resend(ctx, h, secret, data, &dests, jobs)
	if err != nil {
		return n, fmt.Errorf("core: repair: %w", err)
	}
	return n, nil
}

// resend re-mints each job's batch at its rank from data, with one
// encoder per chunk a job names, and sends the batches through the
// write path. They are the batches the manifest already records, so
// the collector rewrites digests it has. It returns the messages
// delivered.
func (s *System) resend(ctx context.Context, h *Handle, secret, data []byte, dests *destSet, jobs []shareJob) (int, error) {
	if len(jobs) == 0 {
		return 0, nil
	}
	// Valid means chunks and pieces pair up.
	if err := h.Manifest.Validate(); err != nil {
		return 0, err
	}
	pieces := chunk.Split(data, h.Manifest.Plan.ChunkSize)
	w := &writeSet{m: &h.Manifest, encs: make([]*rlnc.Encoder, len(pieces))}
	for _, job := range jobs {
		if w.encs[job.chunk] != nil {
			continue
		}
		info := &h.Manifest.Chunks[job.chunk]
		params, err := info.Params(h.Manifest.Plan)
		if err != nil {
			return 0, err
		}
		if w.encs[job.chunk], err = rlnc.NewEncoder(params, info.FileID, secret, pieces[job.chunk]); err != nil {
			return 0, err
		}
	}
	n, _, err := w.stream(ctx, s.client, dests.addrs, jobs)
	return n, err
}
