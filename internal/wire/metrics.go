package wire

// Optional frame-level instrumentation: per-frame-type counters for
// frames and bytes in each direction. The hot path is one atomic
// pointer load plus two counter adds per frame; counters are created
// lazily per frame type (the first frame of a type pays one registry
// lookup, every later frame is allocation-free).

import (
	"sync/atomic"

	"asymshare/internal/metrics"
)

// Exported metric names (part of the observability contract).
const (
	MetricFramesSent    = "wire_frames_sent_total"
	MetricFramesRecv    = "wire_frames_received_total"
	MetricBytesSent     = "wire_bytes_sent_total"
	MetricBytesReceived = "wire_bytes_received_total"
)

// frameHeaderLen is the framing overhead counted into byte totals.
const frameHeaderLen = 5

type wireMetrics struct {
	reg       *metrics.Registry
	sent      [256]atomic.Pointer[metrics.Counter]
	sentBytes [256]atomic.Pointer[metrics.Counter]
	recv      [256]atomic.Pointer[metrics.Counter]
	recvBytes [256]atomic.Pointer[metrics.Counter]
}

var instr atomic.Pointer[wireMetrics]

// Instrument routes frame counters for the whole process into reg:
// wire_frames_{sent,received}_total and wire_bytes_{sent,received}_total,
// labelled by frame type. Passing nil disables instrumentation. Frame
// traffic is process-global (every connection shares one TCP stack),
// so unlike the per-node registries of peer/client this hook is
// package-level.
func Instrument(reg *metrics.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	m := &wireMetrics{reg: reg}
	// Eager-create every defined frame type's series so the families
	// and their series are visible from the very first scrape.
	for t := TypeHello; t <= lastType; t++ {
		m.counter(&m.sent, MetricFramesSent, t)
		m.counter(&m.sentBytes, MetricBytesSent, t)
		m.counter(&m.recv, MetricFramesRecv, t)
		m.counter(&m.recvBytes, MetricBytesReceived, t)
	}
	instr.Store(m)
}

// counter returns the cached per-type counter, creating it on first
// use. Races create the same registry series, so both sides cache the
// identical pointer.
func (m *wireMetrics) counter(arr *[256]atomic.Pointer[metrics.Counter], name string, t Type) *metrics.Counter {
	if c := arr[t].Load(); c != nil {
		return c
	}
	c := m.reg.Counter(name, helpFor(name), metrics.L("type", t.String()))
	arr[t].Store(c)
	return c
}

func helpFor(name string) string {
	switch name {
	case MetricFramesSent:
		return "Frames written, by frame type."
	case MetricFramesRecv:
		return "Frames read, by frame type."
	case MetricBytesSent:
		return "Bytes written including framing overhead, by frame type."
	default:
		return "Bytes read including framing overhead, by frame type."
	}
}

// recordFrameSent counts one outbound frame.
func recordFrameSent(t Type, payloadLen int) {
	m := instr.Load()
	if m == nil {
		return
	}
	m.counter(&m.sent, MetricFramesSent, t).Inc()
	m.counter(&m.sentBytes, MetricBytesSent, t).Add(uint64(payloadLen + frameHeaderLen))
}

// recordFrameRecv counts one inbound frame.
func recordFrameRecv(t Type, payloadLen int) {
	m := instr.Load()
	if m == nil {
		return
	}
	m.counter(&m.recv, MetricFramesRecv, t).Inc()
	m.counter(&m.recvBytes, MetricBytesReceived, t).Add(uint64(payloadLen + frameHeaderLen))
}
