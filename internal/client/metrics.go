package client

import (
	"sync"
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
)

// Exported client metric names (see DESIGN.md §7). The redundancy
// counters quantify the paper's q/(q-1) expected overhead of random
// linear coding (Sec. III-C): redundant = received - innovative -
// rejected, so redundant/innovative should converge to 1/(q-1).
const (
	MetricFetchDuration      = "client_fetch_duration_seconds"
	MetricFetches            = "client_fetches_total"
	MetricMessages           = "client_messages_total"
	MetricInnovativeMessages = "client_innovative_messages_total"
	MetricRedundantMessages  = "client_redundant_messages_total"
	MetricRejectedMessages   = "client_rejected_messages_total"
	MetricDecodedBytes       = "client_decoded_bytes_total"
	MetricReceivedBytes      = "client_received_bytes_total"
	MetricReceivedBytesRate  = "client_received_bytes_rate"

	// Pipeline-engine decode telemetry (DESIGN.md §9): how deep the
	// payload-elimination queue runs, how busy the worker pool is, and
	// how many payload bytes the row operations have processed.
	MetricDecodeQueueDepth  = "client_decode_queue_depth"
	MetricDecodeBusyWorkers = "client_decode_busy_workers"
	MetricDecodeElimBytes   = "client_decode_eliminated_bytes_total"

	// The pipeline's staged digest verify (DESIGN.md §9): groups
	// settled, messages digested by arm, and arrivals that found their
	// generation complete and were dropped unhashed. Lanes ÷ groups is
	// how full the eight MD5 lanes ran.
	MetricVerifyGroups   = "client_verify_groups_total"
	MetricVerifyMessages = "client_verify_messages_total" // arm="lanes" | "scalar"
	MetricVerifySkipped  = "client_verify_skipped_redundant_total"

	// Overload-resilience families (DESIGN.md §15): hedged re-issues,
	// per-peer circuit breakers, and BUSY sheds observed from peers.
	MetricHedgeLaunched      = "hedge_launched_total"
	MetricHedgeStalls        = "hedge_stalls_total"
	MetricBreakerOpens       = "breaker_opens_total"
	MetricBreakerProbes      = "breaker_probes_total"
	MetricBreakerRecoveries  = "breaker_recoveries_total"
	MetricBreakerOpenCurrent = "breaker_open_current"
	MetricShedsObserved      = "client_sheds_observed_total"

	// Surplus and the split that answers it (DESIGN.md §15): DATA frames
	// that reached a session after their generation's stream had ended,
	// by peer address (the first maxSurplusPeers of a client's life, the
	// rest under peer="other"), and the shares the unhedged ladder asked
	// of peers marked for it — complete, or re-asked unlimited by a
	// second round.
	MetricSurplusFrames = "client_surplus_frames_total"
	MetricSurplusBytes  = "client_surplus_bytes_total"
	MetricShares        = "client_shares_total" // outcome="complete" | "second_round"

	// Decode engines built (rlnc.NewPipeline) rather than taken warm
	// from a fetch call's free list: O(window) per manifest, not
	// O(chunks) (DESIGN.md §15).
	MetricPipelinesBuilt = "client_pipelines_built_total"
)

// clientMetrics holds the download-side instruments; the zero value
// (all nil) records nothing.
type clientMetrics struct {
	fetchDur   *metrics.Histogram
	fetches    *metrics.Counter
	fetchFails *metrics.Counter
	messages   *metrics.Counter
	innovative *metrics.Counter
	redundant  *metrics.Counter
	rejected   *metrics.Counter
	decoded    *metrics.Counter
	received   *metrics.Counter
	recvRate   *metrics.Rate

	decodeDepth *metrics.Gauge
	decodeBusy  *metrics.Gauge
	decodeElim  *metrics.Counter

	verifyGroups  *metrics.Counter
	verifyLanes   *metrics.Counter
	verifyScalar  *metrics.Counter
	verifySkipped *metrics.Counter

	pipelinesBuilt *metrics.Counter

	sharesComplete    *metrics.Counter
	sharesSecondRound *metrics.Counter

	// Per-peer surplus series, created on first sight of an address.
	reg       *metrics.Registry
	surplusMu sync.Mutex
	surplus   map[string][2]*metrics.Counter // addr → frames, bytes

	hedgeLaunched     *metrics.Counter
	hedgeStalls       *metrics.Counter
	breakerOpens      *metrics.Counter
	breakerProbes     *metrics.Counter
	breakerRecoveries *metrics.Counter
	breakerOpen       *metrics.Gauge
	shedsObserved     *metrics.Counter
}

// Instrument attaches per-fetch instrumentation to the client. Call it
// once, before the client is shared between goroutines; a nil registry
// leaves the client uninstrumented.
func (c *Client) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.m = clientMetrics{
		fetchDur:   reg.Histogram(MetricFetchDuration, "Wall-clock duration of one generation fetch.", metrics.UnitSeconds),
		fetches:    reg.Counter(MetricFetches, "Generation fetches attempted, by result.", metrics.L("result", "ok")),
		fetchFails: reg.Counter(MetricFetches, "Generation fetches attempted, by result.", metrics.L("result", "error")),
		messages:   reg.Counter(MetricMessages, "Messages offered to the decoder."),
		innovative: reg.Counter(MetricInnovativeMessages, "Messages that increased decoder rank."),
		redundant:  reg.Counter(MetricRedundantMessages, "Authentic messages carrying no new information (q/(q-1) overhead)."),
		rejected:   reg.Counter(MetricRejectedMessages, "Messages that failed digest authentication."),
		decoded:    reg.Counter(MetricDecodedBytes, "Plaintext bytes recovered by successful decodes."),
		received:   reg.Counter(MetricReceivedBytes, "Encoded message bytes received from peers."),
		recvRate:   reg.Rate(MetricReceivedBytesRate, "EWMA download goodput, bytes/second.", metrics.DefaultRateHalfLife),

		decodeDepth: reg.Gauge(MetricDecodeQueueDepth, "Payload elimination jobs queued in the decode pipeline."),
		decodeBusy:  reg.Gauge(MetricDecodeBusyWorkers, "Decode pipeline workers currently eliminating a segment."),
		decodeElim:  reg.Counter(MetricDecodeElimBytes, "Payload bytes processed by decode row operations."),

		verifyGroups:  reg.Counter(MetricVerifyGroups, "Groups of parked messages digested and settled by decode pipelines."),
		verifyLanes:   reg.Counter(MetricVerifyMessages, "Messages digest-verified, by arm.", metrics.L("arm", "lanes")),
		verifyScalar:  reg.Counter(MetricVerifyMessages, "Messages digest-verified, by arm.", metrics.L("arm", "scalar")),
		verifySkipped: reg.Counter(MetricVerifySkipped, "Arrivals dropped unhashed because their generation was already complete."),

		pipelinesBuilt: reg.Counter(MetricPipelinesBuilt, "Decode pipelines built because no warm one of the right geometry was free."),

		sharesComplete:    reg.Counter(MetricShares, "Shares of a generation asked of peers that outrun STOP, by outcome.", metrics.L("outcome", "complete")),
		sharesSecondRound: reg.Counter(MetricShares, "Shares of a generation asked of peers that outrun STOP, by outcome.", metrics.L("outcome", "second_round")),
		reg:               reg,
		surplus:           make(map[string][2]*metrics.Counter),

		hedgeLaunched:     reg.Counter(MetricHedgeLaunched, "Hedge streams re-issued after a stall on the primary peer."),
		hedgeStalls:       reg.Counter(MetricHedgeStalls, "Streams judged stalled: held a slot for a full hedge delay yet contributed nothing."),
		breakerOpens:      reg.Counter(MetricBreakerOpens, "Circuit breakers tripped open by consecutive peer failures."),
		breakerProbes:     reg.Counter(MetricBreakerProbes, "Half-open probe streams launched against quarantined peers."),
		breakerRecoveries: reg.Counter(MetricBreakerRecoveries, "Breakers closed again after a successful probe or fetch."),
		breakerOpen:       reg.Gauge(MetricBreakerOpenCurrent, "Peers currently quarantined by an open circuit breaker."),
		shedsObserved:     reg.Counter(MetricShedsObserved, "BUSY sheds received from overloaded peers."),
	}
}

// maxSurplusPeers bounds the per-peer surplus series: the registry
// cannot drop a series, and a long-lived client may meet any number of
// addresses.
const maxSurplusPeers = 64

// surplusFor returns addr's surplus frame and byte counters (nil, and
// so no-ops, without instrumentation).
func (m *clientMetrics) surplusFor(addr string) (frames, bytes *metrics.Counter) {
	if m.reg == nil {
		return nil, nil
	}
	m.surplusMu.Lock()
	defer m.surplusMu.Unlock()
	if len(m.surplus) >= maxSurplusPeers {
		if _, ok := m.surplus[addr]; !ok {
			addr = "other"
		}
	}
	pair, ok := m.surplus[addr]
	if !ok {
		peer := metrics.L("peer", addr)
		pair = [2]*metrics.Counter{
			m.reg.Counter(MetricSurplusFrames, "DATA frames that arrived after their generation's stream had ended.", peer),
			m.reg.Counter(MetricSurplusBytes, "Bytes of DATA frames that arrived after their generation's stream had ended.", peer),
		}
		m.surplus[addr] = pair
	}
	return pair[0], pair[1]
}

// recordFetch folds one completed generation download into the instrument
// set. decodedBytes is zero when the fetch failed.
func (m *clientMetrics) recordFetch(stats FetchStats, decodedBytes int, err error) {
	m.fetchDur.ObserveDuration(stats.Elapsed)
	if err != nil {
		m.fetchFails.Inc()
	} else {
		m.fetches.Inc()
	}
	m.messages.Add(uint64(stats.Messages))
	m.innovative.Add(uint64(stats.Innovative))
	m.rejected.Add(uint64(stats.Rejected))
	if red := stats.Messages - stats.Innovative - stats.Rejected; red > 0 {
		m.redundant.Add(uint64(red))
	}
	m.decoded.Add(uint64(decodedBytes))
}

// sampleDecode starts a goroutine publishing the pipeline's queue
// depth and worker utilization gauges while a fetch runs; the returned
// stop function ends sampling and zeroes the gauges. It is a no-op
// (returning a no-op stop) without instrumentation.
func (m *clientMetrics) sampleDecode(telemetry func() rlnc.PipelineTelemetry) func() {
	if m.decodeDepth == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t := telemetry()
				m.decodeDepth.Set(float64(t.QueueDepth))
				m.decodeBusy.Set(float64(t.BusyWorkers))
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		m.decodeDepth.Set(0)
		m.decodeBusy.Set(0)
	}
}

// recordDecodeTelemetry folds the pipeline's final counters into the
// instruments after a successful decode.
func (m *clientMetrics) recordDecodeTelemetry(t rlnc.PipelineTelemetry) {
	m.decodeElim.Add(t.EliminatedBytes)
	m.verifyGroups.Add(t.VerifyGroups)
	m.verifyLanes.Add(t.LaneMessages)
	m.verifyScalar.Add(t.ScalarMessages)
	m.verifySkipped.Add(t.SkippedRedundant)
}
