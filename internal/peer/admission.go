package peer

// Bounded admission and standing-aware load shedding (DESIGN.md §14).
//
// When Config.MaxStreams caps the serve path, a request arriving at the
// bound is not queued behind unbounded work: the node either preempts
// the active stream with the lowest (priority, fairness standing) —
// exactly the ordering the paper's incentive structure implies, free
// riders shed first — or refuses the newcomer with a typed BUSY /
// RETRY_AFTER frame it can act on. Before refusing anyone the node
// passes through a brownout band (three quarters of the bound and up)
// in which every stream serves with halved batch sizes, trading peak
// throughput for admission headroom.

import (
	"asymshare/internal/fairshare"
	"asymshare/internal/wire"
)

const (
	// busyRetryAfterMillis is the back-off hint carried by every
	// admission refusal and preemption. It is deliberately modest: a
	// slot usually frees within a transfer time, and clients treat it
	// as a floor, not a schedule.
	busyRetryAfterMillis = 250

	// preemptMargin is how much larger (multiplicatively) a newcomer's
	// standing must be than the weakest active stream's before it may
	// preempt at equal priority. Without the margin two near-equal
	// requesters would preempt each other in a livelock.
	preemptMargin = 1.1

	// Brownout engages when active streams reach brownoutNum/brownoutDen
	// of MaxStreams.
	brownoutNum, brownoutDen = 3, 4
)

// admitVerdict is the outcome of one admission decision.
type admitVerdict struct {
	ok bool
	// retryAfterMillis is the back-off hint for a refusal (ok false).
	retryAfterMillis uint32
	// victim is the stream preempted to make room (ok true); the
	// caller sheds it outside the node lock.
	victim *stream
}

// admitStream decides — atomically with registration, so concurrent
// requests cannot oversubscribe the bound — whether the node takes on
// one more download stream. The granted fast path performs no
// allocation (gated by TestAdmissionSteadyStateAllocs).
func (n *Node) admitStream(s *stream) admitVerdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	max := n.cfg.MaxStreams
	if max <= 0 || len(n.streams) < max {
		n.registerLocked(s)
		return admitVerdict{ok: true}
	}
	// At the bound: find the weakest active stream by (priority,
	// standing). Shed ordering is the fairness ledger's, so the
	// requesters the allocator would reward least are dropped first.
	var victim *stream
	var victimStanding float64
	for t := range n.streams {
		standing := n.ledger.Received(t.client)
		if victim == nil || t.priority < victim.priority ||
			(t.priority == victim.priority && standing < victimStanding) {
			victim, victimStanding = t, standing
		}
	}
	if victim != nil {
		standing := n.ledger.Received(s.client)
		if s.priority > victim.priority ||
			(s.priority == victim.priority && standing > victimStanding*preemptMargin) {
			delete(n.streams, victim)
			n.m.streamsActive.Add(-1)
			n.registerLocked(s)
			return admitVerdict{ok: true, victim: victim}
		}
	}
	return admitVerdict{retryAfterMillis: busyRetryAfterMillis}
}

// shedStream cancels a preempted stream and notifies it best-effort.
// Called outside n.mu. The cancel comes first — it is what actually
// frees the slot — and the BUSY frame goes out on its own goroutine:
// it is written on the victim's connection, whose write lock may be
// held by the victim's serve loop across a blocking, deadline-less
// socket flush (a stalled reader is the typical preemption target), so
// sending it inline would wedge the admitting connection's dispatcher
// on a third party's socket. The goroutine unblocks, at the latest,
// when the victim's connection closes.
func (n *Node) shedStream(victim *stream, reason string) {
	victim.cancel()
	if notify := victim.notifyBusy; notify != nil {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			notify(wire.CodeBusy, busyRetryAfterMillis, reason)
		}()
	}
	n.recordShed(victim.client, true)
}

// updateBrownoutLocked recomputes the brownout flag from the active
// stream count. Callers hold mu.
func (n *Node) updateBrownoutLocked() {
	max := n.cfg.MaxStreams
	b := max > 0 && len(n.streams)*brownoutDen >= max*brownoutNum
	n.brownout.Store(b)
	if b {
		n.m.overloadBrownout.Set(1)
	} else {
		n.m.overloadBrownout.Set(0)
	}
}

// currentBatchBytes is the per-flush DATA budget a serve loop may queue
// right now: the normal watermark, halved during brownout.
func (n *Node) currentBatchBytes() int {
	if n.brownout.Load() {
		return serveBatchBytes / 2
	}
	return serveBatchBytes
}

// recordShed accounts one refused or preempted request.
func (n *Node) recordShed(client fairshare.ID, preempt bool) {
	n.statsMu.Lock()
	n.sheds++
	if preempt {
		n.preempts++
	}
	n.shedsByClient[client]++
	n.statsMu.Unlock()
	n.m.overloadSheds.Inc()
	if preempt {
		n.m.overloadPreempts.Inc()
	}
}

// recordExpired accounts one stream dropped because its propagated
// deadline passed before (or while) it was served.
func (n *Node) recordExpired() {
	n.statsMu.Lock()
	n.expired++
	n.statsMu.Unlock()
	n.m.overloadExpired.Inc()
}

// OverloadStats reports the node's shed/preempt/expiry accounting.
type OverloadStats struct {
	Sheds         int64 // refusals + preemptions, total
	Preempts      int64 // sheds that made room for a higher-standing requester
	Expired       int64 // streams dropped on a passed deadline
	ShedsByClient map[fairshare.ID]int64
}

// OverloadStats snapshots the overload accounting.
func (n *Node) OverloadStats() OverloadStats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	by := make(map[fairshare.ID]int64, len(n.shedsByClient))
	for k, v := range n.shedsByClient {
		by[k] = v
	}
	return OverloadStats{Sheds: n.sheds, Preempts: n.preempts, Expired: n.expired, ShedsByClient: by}
}
