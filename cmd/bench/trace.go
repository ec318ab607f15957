package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asymshare/internal/rlnc"
	"asymshare/internal/transport"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that caused this one (0 for an operation's root).
// Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds every span of a run in memory; nothing is written until
// the benchmark ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id, to be passed to end and to
// children as their parent.
func (t *tracer) begin(op, parent int64, name string) int64 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int64) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns how many spans exist, so a window can later be cut out
// with since.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since copies the spans recorded after mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// writeFile dumps every span as a JSON array.
func (t *tracer) writeFile(path string) error {
	blob, err := json.Marshal(t.since(0))
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (parallel streams) and may outlive the parent; covered time is
// the union of their intervals clipped to the parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerTotals sums span durations, self times and counts by span name.
type layerTotals struct {
	count int
	total time.Duration // Σ span durations
	self  time.Duration // Σ self times
	durs  []float64     // each span's duration, ms
}

func totalsByName(spans []span) map[string]*layerTotals {
	self := selfTimes(spans)
	out := make(map[string]*layerTotals)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += self[s.ID]
		lt.durs = append(lt.durs, float64(s.dur())/1e6)
	}
	return out
}

// timingSink records a span around every AddBytes call of one stream,
// so the stream span's self time is what the stream spent waiting on
// the wire and the peer rather than inside the decoder.
type timingSink struct {
	rlnc.ByteSink
	t      *tracer
	op     int64
	parent int64
}

func (s *timingSink) AddBytes(data []byte) (bool, error) {
	id := s.t.begin(s.op, s.parent, spanAddBytes)
	ok, err := s.ByteSink.AddBytes(data)
	s.t.end(id)
	return ok, err
}

// countingTransport counts the client's dials and the bytes its
// connections read, the transport layer's share of a traced run.
type countingTransport struct {
	inner transport.Transport
	dials atomic.Int64
	rx    atomic.Int64
}

func (c *countingTransport) Listen(addr string) (net.Listener, error) { return c.inner.Listen(addr) }

func (c *countingTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := c.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return &countingConn{Conn: conn, rx: &c.rx}, nil
}

type countingConn struct {
	net.Conn
	rx *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}
