package store

// Optional latency/error instrumentation for Store backends. The disk
// backend's write latency is part of the paper's "pre-fabricated
// messages" argument (Sec. III-A): serving is a verbatim read, so store
// latency bounds serve latency; the histograms make that measurable.

import (
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
)

// Exported store metric names (see DESIGN.md §7).
const (
	MetricOpDuration = "store_op_duration_seconds"
	MetricOpErrors   = "store_op_errors_total"
)

// Namer is implemented by backends that can identify themselves for
// the `backend` metric label.
type Namer interface {
	Backend() string
}

// Backend implements Namer.
func (s *Memory) Backend() string { return "memory" }

// Backend implements Namer.
func (d *Disk) Backend() string { return "disk" }

// instrumented decorates a Store with per-operation latency histograms
// and error counters labelled {backend, op}.
type instrumented struct {
	inner Store

	put, get, messages, drop     *metrics.Histogram
	putE, getE, messagesE, dropE *metrics.Counter
}

var _ Store = (*instrumented)(nil)

// Instrument wraps s with store_op_duration_seconds{backend,op} and
// store_op_errors_total{backend,op}. With a nil registry or nil store
// the input is returned unchanged. Backends not implementing Namer are
// labelled backend="unknown".
func Instrument(s Store, reg *metrics.Registry) Store {
	if s == nil || reg == nil {
		return s
	}
	backend := "unknown"
	if n, ok := s.(Namer); ok {
		backend = n.Backend()
	}
	hist := func(op string) *metrics.Histogram {
		return reg.Histogram(MetricOpDuration, "Store operation latency.", metrics.UnitSeconds,
			metrics.L("backend", backend), metrics.L("op", op))
	}
	errs := func(op string) *metrics.Counter {
		return reg.Counter(MetricOpErrors, "Store operations that returned an error.",
			metrics.L("backend", backend), metrics.L("op", op))
	}
	return &instrumented{
		inner: s,
		put:   hist("put"), get: hist("get"), messages: hist("messages"), drop: hist("drop"),
		putE: errs("put"), getE: errs("get"), messagesE: errs("messages"), dropE: errs("drop"),
	}
}

// Put implements Store.
func (i *instrumented) Put(msg *rlnc.Message) error {
	start := time.Now()
	err := i.inner.Put(msg)
	i.put.ObserveSince(start)
	if err != nil {
		i.putE.Inc()
	}
	return err
}

// Messages implements Store.
func (i *instrumented) Messages(fileID uint64) ([]*rlnc.Message, error) {
	start := time.Now()
	out, err := i.inner.Messages(fileID)
	i.messages.ObserveSince(start)
	if err != nil {
		i.messagesE.Inc()
	}
	return out, err
}

// Get implements Store.
func (i *instrumented) Get(fileID, messageID uint64) (*rlnc.Message, error) {
	start := time.Now()
	out, err := i.inner.Get(fileID, messageID)
	i.get.ObserveSince(start)
	if err != nil {
		i.getE.Inc()
	}
	return out, err
}

// Count implements Store.
func (i *instrumented) Count(fileID uint64) int { return i.inner.Count(fileID) }

// Files implements Store.
func (i *instrumented) Files() []uint64 { return i.inner.Files() }

// Drop implements Store.
func (i *instrumented) Drop(fileID uint64) error {
	start := time.Now()
	err := i.inner.Drop(fileID)
	i.drop.ObserveSince(start)
	if err != nil {
		i.dropE.Inc()
	}
	return err
}
