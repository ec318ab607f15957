package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/store"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {9, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := median(s); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(s, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A parent's self time subtracts the union of its children's intervals:
// overlapping children count once, and a child that outlives the parent
// is clipped to it.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // outlives root by 30
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// covered: [10,60) ∪ [90,100) = 60, so root keeps 40.
	if got := self[1]; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := self[2]; got != 25 {
		t.Errorf("a self = %d, want 25", got)
	}
	if got := self[3]; got != 30 {
		t.Errorf("b self = %d, want 30 (no children)", got)
	}
	by := totalsByName(spans)
	if by["root"].count != 1 || by["root"].self != 40 || by["root"].total != 100 {
		t.Errorf("root totals = %+v", by["root"])
	}
}

func TestLinkEfficiencyClips(t *testing.T) {
	if got := linkEfficiency(5, 10); got != 0.5 {
		t.Errorf("half the link = %v, want 0.5", got)
	}
	if got := linkEfficiency(15, 10); got != 1 {
		t.Errorf("leaky shaper = %v, want clipped to 1", got)
	}
	if got := linkEfficiency(15, 0); got != 0 {
		t.Errorf("unshaped = %v, want 0", got)
	}
}

func TestCapOvershoot(t *testing.T) {
	if got := capOvershoot(15, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("15 B/s over a 10 B/s cap = %v, want 0.5", got)
	}
	if got := capOvershoot(5, 10); got != 0 {
		t.Errorf("under the cap = %v, want 0", got)
	}
}

func TestRegistryDelta(t *testing.T) {
	peerReg, clientReg := metrics.NewRegistry(), metrics.NewRegistry()
	puts := peerReg.Histogram(store.MetricOpDuration, "", metrics.UnitSeconds, metrics.L("backend", "disk"), metrics.L("op", "put"))
	gets := peerReg.Histogram(store.MetricOpDuration, "", metrics.UnitSeconds, metrics.L("backend", "disk"), metrics.L("op", "get"))
	msgs := peerReg.Histogram(store.MetricOpDuration, "", metrics.UnitSeconds, metrics.L("backend", "disk"), metrics.L("op", "messages"))
	dataRx := clientReg.Counter("wire_frames_received_total", "", metrics.L("type", "DATA"))
	byeRx := clientReg.Counter("wire_frames_received_total", "", metrics.L("type", "BYE"))

	read := func() map[string]float64 {
		return readRegistries([]metrics.Snapshot{clientReg.Snapshot(), peerReg.Snapshot()})
	}
	puts.ObserveDuration(time.Second) // before the window: must not count
	dataRx.Add(7)
	before := read()

	puts.ObserveDuration(500 * time.Millisecond)
	puts.ObserveDuration(250 * time.Millisecond)
	gets.ObserveDuration(100 * time.Millisecond)
	msgs.ObserveDuration(200 * time.Millisecond)
	dataRx.Add(3)
	byeRx.Add(1)
	delta := registryDelta(before, read())

	for name, want := range map[string]float64{
		"store.puts":     2,
		"store.put_s":    0.75,
		"store.gets":     2, // get + messages
		"store.get_s":    0.3,
		"wire.frames_rx": 4, // every frame type summed
		"peer.sheds":     0, // family absent from every registry
	} {
		if got := delta[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{better: "lower", bound: 0.1}
	higher := metricDef{better: "higher", bound: 0.1}
	abs := metricDef{better: "lower", bound: 0.03, abs: true}
	if got := worsening(lower, 100, 120); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("latency 100→120 = %v, want 0.2", got)
	}
	if got := worsening(higher, 100, 80); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("goodput 100→80 = %v, want 0.2", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("goodput 100→120 = %v, want an improvement", got)
	}
	if got := worsening(abs, 0.01, 0.05); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("abs 0.01→0.05 = %v, want 0.04", got)
	}
}

func TestCompareSetsFlagsDrift(t *testing.T) {
	mk := func(goodput, failShare float64) suiteSet {
		set := suiteSet{Timed: map[string]*outcome{}}
		for _, sp := range workloads() {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.name] = 100
			}
			m["goodput_mibps"] = goodput
			set.Timed[sp.name] = &outcome{Metrics: m, Specific: map[string]float64{"fail_share": failShare}}
		}
		return set
	}
	if v := compareSets(mk(100, 0), mk(105, 0)); len(v) != 0 {
		t.Errorf("5%% apart is within the bound: %v", v)
	}
	if v := compareSets(mk(100, 0), mk(70, 0)); len(v) != len(workloads()) {
		t.Errorf("30%% apart must be flagged once per workload, got %v", v)
	}
	if v := compareSets(mk(100, 0), mk(100, 0.01)); len(v) != len(workloads()) {
		t.Errorf("fail_share has bound +0; any failure must be flagged, got %v", v)
	}
}

// The committed BENCHMARK.json is generated from the tables here.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	want, err := schema()
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(want) {
		t.Error("BENCHMARK.json differs from `bench -schema`; regenerate it")
	}
	for _, sp := range workloads() {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the schema allows 200", sp.name, len(sp.why))
		}
	}
}

func smokeConfig(t *testing.T, traced bool) runConfig {
	rc := runConfig{seed: 7, seconds: 30, traced: traced, setups: 1, maxOps: 2, scratch: t.TempDir()}
	if traced {
		rc.probe = 20 * time.Millisecond
		rc.traceOut = filepath.Join(t.TempDir(), "spans.json")
	}
	return rc
}

// Every workload, timed and traced, at one chunk and two ops per
// phase: the harness end to end in a few seconds.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, full := range workloads() {
		sp := smokeSpec(full)
		timed, err := execute(sp, smokeConfig(t, false))
		if err != nil {
			t.Fatalf("%s timed: %v", sp.name, err)
		}
		if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
			t.Errorf("%s timed: correct=%v failed=%d of %d: %s", sp.name, timed.Correct, timed.Failed, timed.Attempted, timed.FirstErr)
		}
		for _, d := range endToEnd {
			if v := timed.Metrics[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be zero", sp.name, d.name, v)
			}
		}
		if got := timed.Specific["fail_share"]; got != 0 {
			t.Errorf("%s: fail_share = %v", sp.name, got)
		}

		traced, err := execute(sp, smokeConfig(t, true))
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: stepwise ops must return identical bytes: failed=%d %s", sp.name, traced.Failed, traced.FirstErr)
		}
		for _, d := range perLayer {
			if _, ok := traced.Metrics[d.name]; !ok {
				t.Errorf("%s traced: per-layer metric %s missing", sp.name, d.name)
			}
		}
		if got := traced.Metrics["trace.coverage"]; got < 0.5 {
			t.Errorf("%s traced: spans cover %.2f of the op", sp.name, got)
		}
		shaped := len(sp.caps) > 0
		if wait := traced.Metrics["ratelimit.wait_s"]; shaped != (wait > 0) {
			t.Errorf("%s traced: ratelimit.wait_s = %v with shaping=%v", sp.name, wait, shaped)
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke pass took %v, want under 10 s", d)
	}
}

// An op past its deadline is a failure: it raises fail_share and the
// exit code, and leaves no latency behind.
func TestDeadlineCountsAsFailure(t *testing.T) {
	sp := &spec{
		name:       "crawl",
		fileSize:   mib,
		peers:      1,
		caps:       []float64{1024}, // 1 KiB/s: one burst message, then a crawl
		opDeadline: time.Second,
	}
	o, err := execute(sp, smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != o.Attempted || o.Failed == 0 {
		t.Errorf("failed %d of %d, want every op to fail", o.Failed, o.Attempted)
	}
	if o.Specific["fail_share"] != 1 {
		t.Errorf("fail_share = %v, want 1", o.Specific["fail_share"])
	}
	if o.Samples[kindFetch] != 0 || o.Metrics["op_p50_ms"] != 0 {
		t.Errorf("a timed-out op left a latency: samples=%v p50=%v", o.Samples, o.Metrics["op_p50_ms"])
	}
	if exitCode(o) == 0 {
		t.Error("exit code 0 for a run with failed ops")
	}
}

// An op that returns wrong bytes is a failure, never a latency.
func TestMismatchCountsAsFailure(t *testing.T) {
	sp := smokeSpec(findWorkload("loopback_fetch"))
	r, err := newRun(sp, smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.cl.files[0].data[0] ^= 0xff // the source no longer matches what the peers hold
	o, err := r.finish(r.measure())
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct || o.Failed != o.Attempted || o.Failed == 0 {
		t.Errorf("correct=%v failed=%d of %d, want every op to fail", o.Correct, o.Failed, o.Attempted)
	}
	if o.Samples[kindFetch] != 0 {
		t.Errorf("a mismatched fetch was reported as latency: %v", o.Samples)
	}
	if r.rec.mismatches == 0 {
		t.Error("mismatch not recorded as such")
	}
	if exitCode(o) == 0 {
		t.Error("exit code 0 for a run with wrong bytes")
	}
}
