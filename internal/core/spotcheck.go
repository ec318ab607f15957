package core

// Keyed retention spot-checks over a share handle, the one retention
// check: each (peer, chunk) obligation is probed with internal/audit's
// keyed challenges, so a peer that lost the data, or kept garbage bytes
// under the right ids, fails and is debited. Repair (repair.go) re-sends
// every batch that fails a spot-check of all its messages.

import (
	"context"
	"fmt"
	"math"

	"asymshare/internal/audit"
)

// SpotCheckOptions tunes a spot-check round. The zero value uses the
// audit.Round defaults.
type SpotCheckOptions struct {
	// Sample is the number of messages probed per (peer, chunk).
	Sample int

	// PenaltyPerMessage overrides the ledger debit per failed message;
	// zero charges the serialized message size in bytes.
	PenaltyPerMessage float64

	// Seed makes sampling deterministic; zero seeds from time.
	Seed int64
}

// SpotCheckReport is the outcome of one spot-check round.
type SpotCheckReport struct {
	// Verdicts holds one entry per probed (peer, chunk) obligation, in
	// peer-major, chunk-minor order.
	Verdicts []audit.Verdict

	// FailedChunks maps peer address to the chunk indexes whose audit
	// did not pass there, failed or timed out.
	FailedChunks map[string][]int

	// Debits maps peer ledger identity (key fingerprint) to the total
	// penalty assessed, ready for Client.SendAuditVerdicts.
	Debits map[string]uint64

	// Stats total the round's verdicts.
	Stats audit.Stats
}

// AllPassed reports whether every obligation verified.
func (r *SpotCheckReport) AllPassed() bool { return len(r.FailedChunks) == 0 }

// SpotCheck runs one keyed spot-check round over every (peer, chunk)
// obligation in the handle, respecting ring placement, with one
// connection per peer. It contacts every peer even after failures — the
// point is a complete damage report, not a quick abort.
func (s *System) SpotCheck(ctx context.Context, h *Handle, secret []byte, opts SpotCheckOptions) (*SpotCheckReport, error) {
	if h == nil || len(h.Peers) == 0 {
		return nil, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	// Targets are listed peer-major, chunk-minor; the round keeps that
	// order, so targets[i] and chunks[i] annotate Verdicts[i].
	var (
		targets []audit.Target
		chunks  []int
	)
	for _, addr := range h.Peers {
		for i := range h.Manifest.Chunks {
			rank := h.batchRank(addr, i)
			if rank < 0 {
				continue
			}
			t, err := audit.TargetFor(&h.Manifest, i, rank, addr)
			if err != nil {
				return nil, err
			}
			if len(t.Digests) == 0 {
				continue // shared before digests were recorded
			}
			targets = append(targets, t)
			chunks = append(chunks, i)
		}
	}
	verdicts, err := audit.Round(ctx, s.client, secret, targets, audit.Options{
		SampleSize:        opts.Sample,
		PenaltyPerMessage: opts.PenaltyPerMessage,
		Seed:              opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	report := &SpotCheckReport{
		Verdicts:     verdicts,
		FailedChunks: make(map[string][]int),
		Debits:       make(map[string]uint64),
	}
	st := &report.Stats
	for i, v := range verdicts {
		switch v.Outcome {
		case audit.Pass:
			st.Passed++
		case audit.Fail:
			st.Failed++
		case audit.Timeout:
			st.Timeouts++
		}
		st.MessagesProbed += int64(v.Tally.Sampled)
		st.MessagesProven += int64(v.Tally.Proven)
		st.BytesProven += int64(v.Tally.Proven) * int64(targets[i].MessageBytes)
		st.PenaltyAssessed += v.Penalty
		if v.Outcome != audit.Pass {
			report.FailedChunks[v.Addr] = append(report.FailedChunks[v.Addr], chunks[i])
		}
		if v.Penalty > 0 && v.Peer != "" {
			report.Debits[v.Peer] += uint64(math.Round(v.Penalty))
		}
	}
	return report, nil
}

// ReportSpotCheck forwards the round's debits to the user's own peer,
// so audit failures lower the culprit's standing in the allocator that
// actually serves it (Eq. 2 uses the local ledger).
func (s *System) ReportSpotCheck(ctx context.Context, ownPeerAddr string, r *SpotCheckReport) error {
	if r == nil || len(r.Debits) == 0 {
		return nil
	}
	return s.client.SendAuditVerdicts(ctx, ownPeerAddr, r.Debits)
}
