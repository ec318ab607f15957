package estimate

import (
	"math"
	"sync"
	"testing"
	"time"

	"asymshare/internal/metrics"
)

// sampleAt builds a 1 MiB train timed at the given bytes/second.
func sampleAt(rate float64) Sample {
	const bytes = MinTrainBytes
	return Sample{Bytes: bytes, Duration: time.Duration(float64(bytes) / rate * float64(time.Second))}
}

func TestSampleRate(t *testing.T) {
	s := Sample{Bytes: 1 << 20, Duration: time.Second}
	if got := s.rate(); !within(got, 1<<20, 1e-9) {
		t.Errorf("rate = %v", got)
	}
	for _, bad := range []Sample{{Bytes: 0, Duration: time.Second}, {Bytes: -5, Duration: time.Second}, {Bytes: 100, Duration: 0}, {Bytes: 100, Duration: -time.Second}} {
		if bad.rate() != 0 {
			t.Errorf("rate(%+v) = %v, want 0", bad, bad.rate())
		}
	}
}

// within reports |got-want| <= tol*want.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestHistoryWarmup(t *testing.T) {
	h := NewHistory()
	if h.Estimate() != 0 {
		t.Error("estimate before any samples")
	}
	h.Observe(sampleAt(1e6))
	h.Observe(sampleAt(1e6))
	if h.Estimate() != 0 {
		t.Errorf("estimate with %d samples = %v, want 0 until %d", 2, h.Estimate(), minSamples)
	}
	h.Observe(sampleAt(1e6))
	if got := h.Estimate(); !within(got, 1e6, 0.01) {
		t.Errorf("estimate = %v, want ~1e6", got)
	}
	// Unusable samples are ignored, not counted toward warm-up.
	h2 := NewHistory()
	for i := 0; i < 10; i++ {
		h2.Observe(Sample{Bytes: 0, Duration: time.Second})
	}
	if h2.Estimate() != 0 {
		t.Error("zero-byte samples produced an estimate")
	}
}

// TestHistoryConvergesAndResists: steady samples converge to the true
// rate; a minority of slow cross-traffic dips barely move the
// percentile estimate.
func TestHistoryConverges(t *testing.T) {
	const link = 4e6
	h := NewHistory()
	for i := 0; i < 2*windowLen; i++ {
		h.Observe(sampleAt(link))
	}
	if got := h.Estimate(); !within(got, link, 0.01) {
		t.Errorf("steady-state estimate = %v, want ~%v", got, link)
	}
	// 1 dip in 8: the 90th percentile still reads the link rate.
	for i := 0; i < 2*windowLen; i++ {
		if i%8 == 0 {
			h.Observe(sampleAt(link / 10))
		} else {
			h.Observe(sampleAt(link))
		}
	}
	if got := h.Estimate(); !within(got, link, 0.05) {
		t.Errorf("estimate with dips = %v, want within 5%% of %v", got, link)
	}
	// A real capacity change is tracked, not pinned to history.
	for i := 0; i < 4*windowLen; i++ {
		h.Observe(sampleAt(link / 2))
	}
	if got := h.Estimate(); !within(got, link/2, 0.05) {
		t.Errorf("estimate after capacity drop = %v, want ~%v", got, link/2)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ est, max, want float64 }{
		{0, 100, 0},     // warming up passes through
		{-5, 100, 0},    // nonsense reads as unknown
		{500, 100, 100}, // above ceiling
		{50, 100, 50},   // in range
		{50, 0, 50},     // no ceiling
	}
	for _, c := range cases {
		if got := Clamp(c.est, c.max); got != c.want {
			t.Errorf("Clamp(%v, %v) = %v, want %v", c.est, c.max, got, c.want)
		}
	}
}

func TestEstimatorsConcurrent(t *testing.T) {
	h := NewHistory()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Observe(sampleAt(1e6))
				_ = h.Estimate()
			}
		}()
	}
	wg.Wait()
	if got := h.Estimate(); !within(got, 1e6, 0.01) {
		t.Errorf("concurrent estimate = %v", got)
	}
}

func TestInstrument(t *testing.T) {
	// A nil registry records nothing and estimates as usual.
	h := NewHistory().Instrument(nil)
	for i := 0; i < minSamples; i++ {
		h.Observe(sampleAt(2e6))
	}
	if got := h.Estimate(); !within(got, 2e6, 0.01) {
		t.Errorf("uninstrumented estimate = %v", got)
	}
	reg := metrics.NewRegistry()
	h = NewHistory().Instrument(reg)
	for i := 0; i < minSamples; i++ {
		h.Observe(sampleAt(2e6))
	}
	if got := h.Estimate(); !within(got, 2e6, 0.01) {
		t.Errorf("instrumented estimate = %v", got)
	}
	snap := reg.Snapshot()
	byName := map[string]float64{}
	for _, f := range snap.Families {
		if len(f.Series) == 1 {
			byName[f.Name] = f.Series[0].Value
		}
	}
	if byName[MetricEstimateSamples] != minSamples {
		t.Errorf("%s = %v, want %d", MetricEstimateSamples, byName[MetricEstimateSamples], minSamples)
	}
	if !within(byName[MetricEstimateRate], 2e6, 0.01) || !within(byName[MetricEstimateSampleRate], 2e6, 0.01) {
		t.Errorf("estimate gauges = %v / %v", byName[MetricEstimateRate], byName[MetricEstimateSampleRate])
	}
}

// TestHistoryAggregatesTrains: flushes shorter than MinTrainBytes
// accumulate into one train, timed as one rate over their summed bytes
// and durations.
func TestHistoryAggregatesTrains(t *testing.T) {
	h := NewHistory()
	const half = MinTrainBytes / 2
	for i := 0; i < minSamples; i++ {
		h.Observe(Sample{Bytes: half, Duration: 250 * time.Millisecond})
		if h.Estimate() != 0 {
			t.Fatalf("estimate with %d whole trains and half of the next", i)
		}
		h.Observe(Sample{Bytes: half, Duration: 750 * time.Millisecond})
	}
	if got := h.Estimate(); !within(got, MinTrainBytes, 1e-9) {
		t.Errorf("estimate = %v, want one train of %d bytes a second", got, MinTrainBytes)
	}
}
