package main

import (
	"slices"
	"sync"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// histogram fields a registry metric can be read at.
const (
	fieldValue = iota // counter or gauge value
	fieldSum          // histogram sum, in its exposed unit
	fieldCount        // histogram observation count
)

// registryMetric maps one per-layer metric onto a family of the
// system's own registries, summed over every registry and series;
// label/values, when set, keep only matching series.
type registryMetric struct {
	out    string
	family string
	field  int
	label  string
	values []string
}

var registryMetrics = []registryMetric{
	{out: "wire.frames_rx", family: wire.MetricFramesRecv},
	{out: "wire.bytes_rx", family: wire.MetricBytesReceived},
	{out: "wire.bytes_tx", family: wire.MetricBytesSent},

	{out: "peer.served_bytes", family: peer.MetricServedBytes},
	{out: "peer.connections", family: peer.MetricConnections},
	{out: "peer.streams_admitted", family: peer.MetricOverloadAdmitted},
	{out: "peer.sheds", family: peer.MetricOverloadSheds},
	{out: "peer.realloc_s", family: peer.MetricReallocDur, field: fieldSum},
	{out: "peer.reallocs", family: peer.MetricReallocDur, field: fieldCount},

	{out: "fairshare.alloc_s", family: fairshare.MetricAllocDuration, field: fieldSum},
	{out: "fairshare.alloc_calls", family: fairshare.MetricAllocDuration, field: fieldCount},

	{out: "ratelimit.wait_s", family: peer.MetricWaitSeconds, field: fieldSum},
	{out: "ratelimit.throttles", family: peer.MetricThrottled},

	{out: "store.put_s", family: store.MetricOpDuration, field: fieldSum, label: "op", values: []string{"put"}},
	{out: "store.puts", family: store.MetricOpDuration, field: fieldCount, label: "op", values: []string{"put"}},
	{out: "store.get_s", family: store.MetricOpDuration, field: fieldSum, label: "op", values: []string{"get", "messages"}},
	{out: "store.gets", family: store.MetricOpDuration, field: fieldCount, label: "op", values: []string{"get", "messages"}},
	{out: "store.errors", family: store.MetricOpErrors},

	{out: "client.hedges", family: client.MetricHedgeLaunched},
	{out: "client.breaker_opens", family: client.MetricBreakerOpens},
	{out: "client.sheds_seen", family: client.MetricShedsObserved},
	{out: "client.msgs_offered", family: client.MetricMessages},
	{out: "client.msgs_innovative", family: client.MetricInnovativeMessages},
	{out: "client.msgs_rejected", family: client.MetricRejectedMessages},
}

// readRegistries evaluates every registryMetric over the snapshots.
func readRegistries(snaps []metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(registryMetrics))
	for _, rm := range registryMetrics {
		var sum float64
		for _, snap := range snaps {
			fam, ok := snap.Find(rm.family)
			if !ok {
				continue
			}
			for _, s := range fam.Series {
				if rm.label != "" && !slices.Contains(rm.values, metrics.Get(s.Labels, rm.label)) {
					continue
				}
				switch {
				case rm.field == fieldValue:
					sum += s.Value
				case s.Hist == nil:
				case rm.field == fieldSum:
					sum += s.Hist.SumScaled()
				default:
					sum += float64(s.Hist.Count)
				}
			}
		}
		out[rm.out] = sum
	}
	return out
}

// registryDelta is what the registries counted between two reads.
func registryDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// readLayers reads every registry of a traced cluster plus the
// counting transport.
func (c *cluster) readLayers() map[string]float64 {
	snaps := []metrics.Snapshot{c.clientReg.Snapshot()}
	for _, reg := range c.peerRegs {
		snaps = append(snaps, reg.Snapshot())
	}
	out := readRegistries(snaps)
	out["transport.dials"] = float64(c.counting.dials.Load())
	out["transport.conn_bytes_rx"] = float64(c.counting.rx.Load())
	return out
}

// grantSampleEvery is how often the granted-rate gauges are read.
const grantSampleEvery = 100 * time.Millisecond

// grantedShare returns client A's share of the rates the peers
// currently grant A and B, or false when either has no grant.
func (c *cluster) grantedShare() (float64, bool) {
	a, b := c.systems[0].Identity().Fingerprint(), c.systems[1].Identity().Fingerprint()
	var ga, gb float64
	for _, reg := range c.peerRegs {
		fam, ok := reg.Snapshot().Find(peer.MetricGrantedRate)
		if !ok {
			continue
		}
		for _, s := range fam.Series {
			switch metrics.Get(s.Labels, "requester") {
			case a:
				ga += s.Value
			case b:
				gb += s.Value
			}
		}
	}
	if ga <= 0 || gb <= 0 {
		return 0, false
	}
	return ga / (ga + gb), true
}

// watchLayers starts a traced window: it reads the registries now and,
// on a two-client cluster, samples the allocator's granted split until
// the returned stop function is called. stop returns the registry
// deltas and the mean granted share of client A — the allocator's
// output before the shaper, which separates allocation error from
// shaper leakage.
func (c *cluster) watchLayers() func() (map[string]float64, float64) {
	before := c.readLayers()
	var (
		wg      sync.WaitGroup
		quit    = make(chan struct{})
		sum     float64
		samples int
	)
	if len(c.systems) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(grantSampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					if share, ok := c.grantedShare(); ok {
						sum += share
						samples++
					}
				}
			}
		}()
	}
	return func() (map[string]float64, float64) {
		close(quit)
		wg.Wait()
		var granted float64
		if samples > 0 {
			granted = sum / float64(samples)
		}
		return registryDelta(before, c.readLayers()), granted
	}
}

// layerValues folds a traced window — spans, registry and transport
// deltas, decoder accounting — into the per-layer metrics.
func (r *run) layerValues(m measured) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m.layerDelta {
		out[k] = v
	}
	by := totalsByName(m.layerSpans)
	get := func(name string) *layerTotals {
		if lt := by[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }

	out["chunk.build_share_s"] = sec(get(spanBuildShare).total)
	out["chunk.assemble_s"] = sec(get(spanAssemble).total)
	out["rlnc.encode_s"] = sec(get(spanEncode).total)
	out["rlnc.encode_msgs"] = float64(r.encodeMsgs)
	out["rlnc.pipeline_new_s"] = sec(get(spanPipelineNew).total)
	out["rlnc.pipelines"] = float64(get(spanPipelineNew).count)
	out["rlnc.add_bytes_s"] = sec(get(spanAddBytes).total)
	out["rlnc.add_bytes_calls"] = float64(get(spanAddBytes).count)
	out["rlnc.decode_s"] = sec(get(spanDecode).total)
	out["client.session_open_s"] = sec(get(spanSessionOpen).total)
	out["client.sessions"] = float64(get(spanSessionOpen).count)
	out["client.stream_wait_s"] = sec(get(spanFetchStream).self)
	out["client.disseminate_s"] = sec(get(spanDisseminate).total)
	out["client.chunk_fetch_p50_ms"] = median(get(spanChunkFetch).durs)
	out["core.fetch_self_s"] = sec(get(spanFetch).self)
	out["core.share_self_s"] = sec(get(spanShare).self)
	out["core.update_s"] = sec(get(spanUpdate).total)

	// Decoder accounting: the stepwise fetches count their own
	// pipelines; library fetches in the window (streams, verifies)
	// are in the client's registry.
	offered := float64(r.decode.offered) + out["client.msgs_offered"]
	innovative := float64(r.decode.innovative) + out["client.msgs_innovative"]
	if offered > 0 {
		out["rlnc.innovative_ratio"] = innovative / offered
	}
	out["rlnc.rejected_msgs"] = float64(r.decode.rejected) + out["client.msgs_rejected"]

	out["fairshare.granted_share_a"] = m.grantedA

	// The traced op against the library op timed on the same cluster,
	// and how much of the op's wall time some layer's span covers.
	primary, lib, root := kindFetch, kindFetchLib, spanFetch
	if r.sp.share {
		primary, lib, root = kindShare, kindShareLib, spanShare
	}
	traced, baseline := median(r.rec.ms(primary)), median(r.rec.ms(lib))
	out["trace.ops"] = float64(get(root).count)
	out["trace.window_s"] = m.layerWall
	out["trace.op_p50_ms"] = traced
	if baseline > 0 {
		out["trace.overhead"] = traced/baseline - 1
	}
	if total := get(root).total; total > 0 {
		out["trace.coverage"] = 1 - sec(get(root).self)/sec(total)
	}
	return out
}
