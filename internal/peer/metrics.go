package peer

// Node instrumentation. Every instrument is nil when Config.Metrics is
// unset, and all metrics.* methods are no-ops on nil receivers, so the
// serving hot path pays nothing for an uninstrumented node.

import (
	"asymshare/internal/fairshare"
	"asymshare/internal/metrics"
)

// Exported peer metric names (see DESIGN.md §7).
const (
	MetricConnections    = "peer_connections_total"
	MetricConnsActive    = "peer_connections_active"
	MetricConnsShed      = "peer_connections_shed_total"
	MetricAcceptErrors   = "peer_accept_errors_total"
	MetricStreamsActive  = "peer_streams_active"
	MetricCapacity       = "peer_capacity_bytes_per_second"
	MetricGrantedRate    = "peer_granted_rate_bytes_per_second"
	MetricReallocDur     = "peer_realloc_duration_seconds"
	MetricServedBytes    = "peer_served_bytes_total"
	MetricServedRate     = "peer_served_bytes_rate"
	MetricStoredBytes    = "peer_stored_bytes_total"
	MetricFeedback       = "peer_feedback_reports_total"
	MetricAuditsAnswered = "peer_audit_challenges_total"
	MetricAuditSampled   = "peer_audit_messages_sampled_total"
	MetricAuditHeld      = "peer_audit_messages_held_total"

	// Overload-resilience families (DESIGN.md §14).
	MetricOverloadSheds    = "overload_sheds_total"
	MetricOverloadPreempts = "overload_preempts_total"
	MetricOverloadExpired  = "overload_expired_total"
	MetricOverloadBrownout = "overload_brownout_active"
	MetricOverloadAdmitted = "overload_admitted_total"

	// Ratelimit families shared by every stream bucket of the node.
	MetricWaitSeconds = "ratelimit_wait_seconds"
	MetricThrottled   = "ratelimit_throttle_events_total"
)

// nodeMetrics holds one node's instruments. grants caches the
// per-requester granted-rate gauges; it is only touched under n.mu
// (from reallocateLocked), so it needs no lock of its own.
type nodeMetrics struct {
	reg *metrics.Registry

	conns        *metrics.Counter
	connsActive  *metrics.Gauge
	connsShed    *metrics.Counter
	acceptErrors *metrics.Counter

	streamsActive *metrics.Gauge
	capacity      *metrics.Gauge
	reallocDur    *metrics.Histogram
	grants        map[fairshare.ID]*metrics.Gauge

	servedBytes *metrics.Counter
	servedRate  *metrics.Rate
	storedBytes *metrics.Counter
	feedback    *metrics.Counter

	auditsAnswered *metrics.Counter
	auditSampled   *metrics.Counter
	auditHeld      *metrics.Counter

	overloadSheds    *metrics.Counter
	overloadPreempts *metrics.Counter
	overloadExpired  *metrics.Counter
	overloadBrownout *metrics.Gauge
	overloadAdmitted *metrics.Counter

	waitSeconds *metrics.Histogram
	throttled   *metrics.Counter
}

func newNodeMetrics(reg *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		reg:            reg,
		conns:          reg.Counter(MetricConnections, "Connections accepted."),
		connsActive:    reg.Gauge(MetricConnsActive, "Connections currently open."),
		connsShed:      reg.Counter(MetricConnsShed, "Connections closed immediately because MaxConns was reached."),
		acceptErrors:   reg.Counter(MetricAcceptErrors, "Transient listener accept failures (retried with backoff)."),
		streamsActive:  reg.Gauge(MetricStreamsActive, "Download streams currently being served."),
		capacity:       reg.Gauge(MetricCapacity, "Upload capacity divided by the last realloc tick (configured or estimated)."),
		reallocDur:     reg.Histogram(MetricReallocDur, "Time to recompute all stream rates (Eq. 2 allocation).", metrics.UnitSeconds),
		grants:         make(map[fairshare.ID]*metrics.Gauge),
		servedBytes:    reg.Counter(MetricServedBytes, "Message bytes served to downloaders."),
		servedRate:     reg.Rate(MetricServedRate, "EWMA upload rate, bytes/second.", metrics.DefaultRateHalfLife),
		storedBytes:    reg.Counter(MetricStoredBytes, "Message bytes accepted via PUT."),
		feedback:       reg.Counter(MetricFeedback, "Owner feedback reports folded into the ledger."),
		auditsAnswered: reg.Counter(MetricAuditsAnswered, "Audit challenges answered."),
		overloadSheds:  reg.Counter(MetricOverloadSheds, "Download requests refused or preempted with BUSY under overload."),
		overloadPreempts: reg.Counter(MetricOverloadPreempts,
			"Active streams preempted in favor of a higher-standing requester."),
		overloadExpired: reg.Counter(MetricOverloadExpired,
			"Streams dropped because the requester's propagated deadline passed."),
		overloadBrownout: reg.Gauge(MetricOverloadBrownout,
			"1 while the node serves with halved batch sizes (brownout), 0 otherwise."),
		overloadAdmitted: reg.Counter(MetricOverloadAdmitted,
			"Download streams admitted by the bounded admission check."),
		auditSampled: reg.Counter(MetricAuditSampled, "Messages probed by incoming audit challenges."),
		auditHeld:    reg.Counter(MetricAuditHeld, "Probed messages the store still held."),
		waitSeconds:  reg.Histogram(MetricWaitSeconds, "Time send loops spent blocked in the token bucket.", metrics.UnitSeconds),
		throttled:    reg.Counter(MetricThrottled, "Shaped sends that had to block for tokens."),
	}
}

// grantGauge returns the cached granted-rate gauge for a requester,
// creating it on first sight. Callers hold n.mu. Returns nil when the
// node is uninstrumented.
func (m *nodeMetrics) grantGauge(id fairshare.ID) *metrics.Gauge {
	if m.reg == nil {
		return nil
	}
	if g, ok := m.grants[id]; ok {
		return g
	}
	g := m.reg.Gauge(MetricGrantedRate,
		"Upload bandwidth currently granted to each requester by the allocator.",
		metrics.L("requester", id))
	m.grants[id] = g
	return g
}
