package main

// metricDef names one metric the benchmark prints: its unit, which
// direction is better, and the bound by which it may worsen before the
// benchmark itself (-repeat) calls two runs different. abs marks a
// bound that is an absolute difference rather than a share of the
// first value. README.md holds each metric's definition.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	abs    bool
}

// endToEnd are the metrics every workload reports in a timed run; they
// are the end_to_end list of BENCHMARK.json. Each is defined over the
// workload's primary operation — core.FetchFile on the fetch workloads,
// core.ShareFile on share_disk — so none is ever zero.
var endToEnd = []metricDef{
	{name: "goodput_mibps", unit: "MiB/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "wire_overhead", unit: "ratio", better: "lower", bound: 0.05},
	{name: "cpu_s_per_gib", unit: "s/GiB", better: "lower", bound: 0.25},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// specific are the end-to-end metrics that exist on some workloads
// only. A timed run prints the ones its workload defines and -repeat
// holds them to these bounds; BENCHMARK.json lists them under
// per_layer with a bench. prefix, because its end_to_end metrics must
// be reported by every workload.
var specific = []metricDef{
	{name: "fetch_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ttfc_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "play_p50_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "link_efficiency", unit: "ratio", better: "higher", bound: 0.05},
	{name: "cap_overshoot", unit: "ratio", better: "lower", bound: 0.10, abs: true},
	{name: "update_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "share_a", unit: "ratio", better: "higher", bound: 0.03, abs: true},
	{name: "alloc_share_err", unit: "abs", better: "lower", bound: 0.03, abs: true},
	{name: "fail_share", unit: "ratio", better: "lower", abs: true},
}

// perLayer are the traced run's metrics, layer (package) before the
// dot. _s is busy seconds summed over the traced window, counts are
// work done, _mibps are the short memory-only probes.
var perLayer = []metricDef{
	{name: "chunk.build_share_s", unit: "s", better: "lower"},
	{name: "chunk.assemble_s", unit: "s", better: "lower"},

	{name: "rlnc.encode_s", unit: "s", better: "lower"},
	{name: "rlnc.encode_msgs", unit: "count", better: "lower"},
	{name: "rlnc.pipeline_new_s", unit: "s", better: "lower"},
	{name: "rlnc.pipelines", unit: "count", better: "lower"},
	{name: "rlnc.add_bytes_s", unit: "s", better: "lower"},
	{name: "rlnc.add_bytes_calls", unit: "count", better: "lower"},
	{name: "rlnc.decode_s", unit: "s", better: "lower"},
	{name: "rlnc.innovative_ratio", unit: "ratio", better: "higher"},
	{name: "rlnc.rejected_msgs", unit: "count", better: "lower"},
	{name: "rlnc.encode_mibps", unit: "MiB/s", better: "higher"},
	{name: "rlnc.decode_mibps", unit: "MiB/s", better: "higher"},

	{name: "client.session_open_s", unit: "s", better: "lower"},
	{name: "client.sessions", unit: "count", better: "lower"},
	{name: "client.stream_wait_s", unit: "s", better: "lower"},
	{name: "client.disseminate_s", unit: "s", better: "lower"},
	{name: "client.chunk_fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "client.hedges", unit: "count", better: "lower"},
	{name: "client.breaker_opens", unit: "count", better: "lower"},
	{name: "client.sheds_seen", unit: "count", better: "lower"},

	{name: "wire.frames_rx", unit: "count", better: "lower"},
	{name: "wire.bytes_rx", unit: "bytes", better: "lower"},
	{name: "wire.bytes_tx", unit: "bytes", better: "lower"},
	{name: "wire.transport_mibps", unit: "MiB/s", better: "higher"},

	{name: "transport.dials", unit: "count", better: "lower"},
	{name: "transport.conn_bytes_rx", unit: "bytes", better: "lower"},

	{name: "peer.served_bytes", unit: "bytes", better: "lower"},
	{name: "peer.connections", unit: "count", better: "lower"},
	{name: "peer.streams_admitted", unit: "count", better: "lower"},
	{name: "peer.sheds", unit: "count", better: "lower"},
	{name: "peer.realloc_s", unit: "s", better: "lower"},
	{name: "peer.reallocs", unit: "count", better: "lower"},

	{name: "fairshare.alloc_s", unit: "s", better: "lower"},
	{name: "fairshare.alloc_calls", unit: "count", better: "lower"},
	{name: "fairshare.granted_share_a", unit: "ratio", better: "higher"},

	{name: "ratelimit.wait_s", unit: "s", better: "lower"},
	{name: "ratelimit.throttles", unit: "count", better: "lower"},

	{name: "store.put_s", unit: "s", better: "lower"},
	{name: "store.puts", unit: "count", better: "lower"},
	{name: "store.get_s", unit: "s", better: "lower"},
	{name: "store.gets", unit: "count", better: "lower"},
	{name: "store.errors", unit: "count", better: "lower"},
	{name: "store.disk_put_mibps", unit: "MiB/s", better: "higher"},

	{name: "core.fetch_self_s", unit: "s", better: "lower"},
	{name: "core.share_self_s", unit: "s", better: "lower"},
	{name: "core.update_s", unit: "s", better: "lower"},

	{name: "trace.ops", unit: "count", better: "higher"},
	{name: "trace.window_s", unit: "s", better: "lower"},
	{name: "trace.op_p50_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
}

// specificPrefix is how a workload-specific end-to-end metric is named
// among the per-layer metrics of BENCHMARK.json.
const specificPrefix = "bench."

// tracedMetrics is every metric a traced run reports: the per-layer
// ones and the workload-specific end-to-end ones (zero where the
// workload does not define them).
func tracedMetrics() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, d := range specific {
		d.name = specificPrefix + d.name
		out = append(out, d)
	}
	return out
}
