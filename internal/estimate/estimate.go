// Package estimate infers a peer's real upload capacity online from
// observed transfers, so the allocation rule (fairshare, Eq. 2) can
// divide measured bandwidth instead of a statically configured number
// (following Andreica & Tapus, "Efficient Upload Bandwidth Estimation
// and Communication Resource Allocation" — see PAPERS.md).
//
// The serve path feeds a History one Sample per socket flush: how many
// bytes the flush moved and how long it took. Crucially these time the
// *drain rate of the link*, not the token-bucket-shaped application
// rate — a stream granted 10 KB/s by the allocator still drains its
// batches at full link speed, so the samples see capacity even while
// the policy is withholding it. Small flushes ride buffers and
// overestimate wildly, so History aggregates flushes into trains of at
// least MinTrainBytes and times each train as one rate.
//
// History answers an EWMA-smoothed percentile over a sliding window of
// train rates (robust to cross-traffic dips). It is safe for
// concurrent use and answers 0 until it has enough trains.
package estimate

import (
	"slices"
	"sync"
	"time"

	"asymshare/internal/metrics"
)

// Estimator metric names (see DESIGN.md §7). Named under the
// fairshare_ prefix because the estimate exists to feed the fairshare
// allocator's capacity input.
const (
	MetricEstimateRate       = "fairshare_estimate_bytes_per_second"
	MetricEstimateSamples    = "fairshare_estimate_samples_total"
	MetricEstimateSampleRate = "fairshare_estimate_sample_rate"
)

// MinTrainBytes is the smallest train History times as one rate.
// Below this, socket and shaper burst buffers (64 KiB order) dominate
// the timing and the rate reads high.
const MinTrainBytes = 1 << 20

// Sample is one observed transfer: Bytes moved in Duration.
type Sample struct {
	Bytes    int64
	Duration time.Duration
}

// rate returns the sample's bytes/second, or 0 if it is unusable.
func (s Sample) rate() float64 {
	if s.Bytes <= 0 || s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Duration.Seconds()
}

const (
	// windowLen is how many train rates the percentile is taken over.
	windowLen = 32
	// percentile is the window percentile History answers.
	percentile = 0.9
	// alpha is the EWMA smoothing weight for a new window percentile.
	alpha = 0.25
	// minSamples is how many trains History wants before answering; a
	// single timing is too noisy to steer allocation.
	minSamples = 3
)

// History estimates capacity as an EWMA-smoothed percentile of the
// train-rate window: the percentile discards the slow tail (trains
// that lost the link to cross-traffic) without chasing the single
// fastest outlier, and the EWMA keeps the answer from jumping when one
// train rotates out of the window. Create with NewHistory.
type History struct {
	mu    sync.Mutex
	train Sample // flushes not yet MinTrainBytes long
	rates [windowLen]float64
	next  int
	full  bool
	ewma  float64
	seen  int

	// Instruments; nil (recording nothing) until Instrument.
	rate    *metrics.Gauge
	samples *metrics.Counter
	last    *metrics.Gauge
}

// NewHistory returns an empty History.
func NewHistory() *History { return &History{} }

// Instrument publishes the train count, the last train's rate and the
// current estimate into reg, and returns h. Call it before the first
// Observe; a nil registry records nothing.
func (h *History) Instrument(reg *metrics.Registry) *History {
	h.rate = reg.Gauge(MetricEstimateRate, "Current upload capacity estimate.")
	h.samples = reg.Counter(MetricEstimateSamples, "Transfer samples fed to the capacity estimator.")
	h.last = reg.Gauge(MetricEstimateSampleRate, "Rate of the last transfer sample observed.")
	return h
}

// Observe adds one flush to the current train. Once the train holds
// MinTrainBytes it becomes one rate in the window and a new train
// starts. Unusable samples are ignored.
func (h *History) Observe(s Sample) {
	if s.rate() <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.train.Bytes += s.Bytes
	h.train.Duration += s.Duration
	if h.train.Bytes < MinTrainBytes {
		return
	}
	r := h.train.rate()
	h.train = Sample{}
	h.rates[h.next] = r
	if h.next++; h.next == windowLen {
		h.next, h.full = 0, true
	}
	h.seen++
	n := h.next
	if h.full {
		n = windowLen
	}
	sorted := h.rates // a copy: the window keeps arrival order
	slices.Sort(sorted[:n])
	idx := int(percentile*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if p := sorted[idx]; h.ewma == 0 {
		h.ewma = p
	} else {
		h.ewma += alpha * (p - h.ewma)
	}
	h.samples.Inc()
	h.last.Set(r)
	h.rate.Set(h.estimateLocked())
}

// Estimate returns the current capacity estimate in bytes/second, 0
// while still warming up.
func (h *History) Estimate() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.estimateLocked()
}

func (h *History) estimateLocked() float64 {
	if h.seen < minSamples {
		return 0
	}
	return h.ewma
}

// Clamp bounds an estimate to max; a non-positive max is ignored, and
// a zero (warming-up) estimate passes through unchanged so callers can
// distinguish "unknown" from "slow".
func Clamp(est, max float64) float64 {
	if est <= 0 {
		return 0
	}
	if max > 0 && est > max {
		return max
	}
	return est
}
