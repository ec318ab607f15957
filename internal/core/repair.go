package core

// Retention repair. Because every message is a deterministic function
// of (file-id, message-id, secret), the owner can regenerate any peer's
// batch from the original data at any time — so a peer that lost or
// corrupted its copy is repaired with a plain re-dissemination, no
// inter-peer transfer or decode needed. This realizes the paper's
// "geographic data robustness" operationally.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"asymshare/internal/audit"
	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

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

// Repair spot-checks every message of every batch the handle places
// (up to wire.MaxAuditSample a batch) and re-sends, at its rank and
// regenerated from data, each batch whose holder answered and failed
// the check: missing or corrupted. A holder that did not answer is
// skipped; once the other batches are sent, Repair returns an error
// naming every such holder. It returns the number of messages
// re-uploaded.
func (s *System) Repair(ctx context.Context, h *Handle, secret, data []byte) (int, error) {
	if h == nil || len(h.Peers) == 0 {
		return 0, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	if int64(len(data)) != h.Manifest.TotalSize {
		return 0, fmt.Errorf("%w: data is %d bytes, manifest says %d",
			ErrBadHandle, len(data), h.Manifest.TotalSize)
	}
	report, err := s.SpotCheck(ctx, h, secret, SpotCheckOptions{Sample: wire.MaxAuditSample})
	if err != nil {
		return 0, err
	}
	chunkOf := make(map[uint64]int, len(h.Manifest.Chunks))
	for i, info := range h.Manifest.Chunks {
		chunkOf[info.FileID] = i
	}
	var (
		dests       destSet
		jobs        []shareJob
		unreachable []string
	)
	for _, v := range report.Verdicts {
		switch v.Outcome {
		case audit.Fail:
			i := chunkOf[v.FileID]
			jobs = append(jobs, shareJob{dest: dests.of(v.Addr), chunk: i, rank: h.batchRank(v.Addr, i)})
		case audit.Timeout:
			if !slices.Contains(unreachable, v.Addr) {
				unreachable = append(unreachable, v.Addr)
			}
		}
	}
	n, err := s.resend(ctx, h, secret, data, &dests, jobs)
	if err != nil {
		return n, fmt.Errorf("core: repair: %w", err)
	}
	if len(unreachable) > 0 {
		return n, fmt.Errorf("core: repair: unreachable holders not repaired: %s", strings.Join(unreachable, ", "))
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
