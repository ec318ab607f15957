package fairshare

import (
	"time"

	"asymshare/internal/metrics"
)

// MetricAllocDuration times Allocate calls of an instrumented allocator.
const MetricAllocDuration = "fairshare_alloc_duration_seconds"

// Per-policy metric name fragments: the instrumented allocator exports
// fairshare_policy_<name>_allocs_total and
// fairshare_policy_<name>_granted_rate for its policy's PolicyName.
const (
	MetricPolicyPrefix      = "fairshare_policy_"
	metricPolicyAllocsSufx  = "_allocs_total"
	metricPolicyGrantedSufx = "_granted_rate"
)

// PolicyName returns the short CLI/metrics name of a built-in policy
// ("eq2", "eq3", "equal", "withhold", "favor", "titfortat", "bci"),
// or "custom" for anything else.
func PolicyName(a Allocator) string {
	switch a.(type) {
	case PairwiseProportional:
		return "eq2"
	case GlobalProportional:
		return "eq3"
	case EqualSplit:
		return "equal"
	case Withhold:
		return "withhold"
	case Favor:
		return "favor"
	case TitForTat:
		return "titfortat"
	case BiasedContribution:
		return "bci"
	case timedAllocator:
		return PolicyName(a.(timedAllocator).inner)
	default:
		return "custom"
	}
}

// timedAllocator wraps an Allocator and records how long each Allocate
// call takes plus per-policy grant totals. The paper's rule is
// O(requesters) per slot; the histogram makes allocation cost visible
// as swarms grow.
type timedAllocator struct {
	inner   Allocator
	dur     *metrics.Histogram
	allocs  *metrics.Counter
	granted *metrics.Gauge
}

// InstrumentAllocator returns an Allocator that records the duration of
// every Allocate call and per-policy grant totals into reg. With a nil
// registry or nil inner allocator the input is returned unchanged.
func InstrumentAllocator(inner Allocator, reg *metrics.Registry) Allocator {
	if inner == nil || reg == nil {
		return inner
	}
	name := PolicyName(inner)
	return timedAllocator{
		inner:   inner,
		dur:     reg.Histogram(MetricAllocDuration, "Time spent computing one bandwidth allocation.", metrics.UnitSeconds),
		allocs:  reg.Counter(MetricPolicyPrefix+name+metricPolicyAllocsSufx, "Allocation rounds computed by the active policy."),
		granted: reg.Gauge(MetricPolicyPrefix+name+metricPolicyGrantedSufx, "Total rate granted by the last allocation round."),
	}
}

// Allocate implements Allocator.
func (t timedAllocator) Allocate(req AllocRequest) Grants {
	start := time.Now()
	out := t.inner.Allocate(req)
	t.dur.ObserveSince(start)
	t.allocs.Inc()
	t.granted.Set(out.Total())
	return out
}
