package peer

// White-box tests for the bounded admission controller: shed ordering
// by (priority, standing), the brownout band, and the 0-alloc gate on
// the granted fast path.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/fairshare"
	"asymshare/internal/metrics"
	"asymshare/internal/ratelimit"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

func admissionIdentity(t testing.TB, b byte) *auth.Identity {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func admissionNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	if cfg.Identity == nil {
		cfg.Identity = admissionIdentity(t, 1)
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// count reads one counter family of the node's registry.
func count(reg *metrics.Registry, name string) uint64 {
	return reg.Counter(name, "").Value()
}

// fakeStream fabricates a registered-shape stream without a network
// connection.
func fakeStream(client fairshare.ID, priority uint8) *stream {
	_, cancel := context.WithCancel(context.Background())
	return &stream{
		client:   client,
		bucket:   ratelimit.NewBucket(0, 1<<20),
		cancel:   cancel,
		limited:  true,
		priority: priority,
	}
}

func TestAdmissionUnlimitedWithoutMaxStreams(t *testing.T) {
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6})
	for i := 0; i < 32; i++ {
		if v := n.admitStream(fakeStream("c", 0)); !v.ok || v.victim != nil {
			t.Fatalf("stream %d: verdict %+v, want unconditional admit", i, v)
		}
	}
}

// TestAdmissionShedsLowestStandingFirst pins the shed ordering: at the
// bound, a request from a higher-standing client preempts the active
// stream with the weakest standing; a lower-standing request is
// refused with a retry hint.
func TestAdmissionShedsLowestStandingFirst(t *testing.T) {
	reg := metrics.NewRegistry()
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, MaxStreams: 2, Metrics: reg})
	n.ledger.Credit("freerider", 1)
	n.ledger.Credit("steady", 1000)
	n.ledger.Credit("vip", 1_000_000)
	n.ledger.Credit("weak", 0.5)

	free := fakeStream("freerider", 0)
	freeCtx, cancelFree := context.WithCancel(context.Background())
	free.cancel = cancelFree
	steady := fakeStream("steady", 0)
	if v := n.admitStream(free); !v.ok {
		t.Fatalf("first admit refused: %+v", v)
	}
	if v := n.admitStream(steady); !v.ok {
		t.Fatalf("second admit refused: %+v", v)
	}

	// A weaker newcomer is refused, with a usable retry hint (the conn
	// path accounts the refusal; mirror it).
	if v := n.admitStream(fakeStream("weak", 0)); v.ok || v.retryAfterMillis == 0 {
		t.Fatalf("weak newcomer at capacity: verdict %+v, want refusal with retry hint", v)
	}
	n.m.overloadSheds.Inc()

	// A stronger newcomer preempts the free rider, not the steady
	// contributor.
	vip := fakeStream("vip", 0)
	v := n.admitStream(vip)
	if !v.ok || v.victim != free {
		t.Fatalf("vip admission: verdict ok=%v victim=%v, want preemption of the free rider", v.ok, v.victim)
	}
	n.shedStream(v.victim, "test preemption")

	n.mu.Lock()
	_, freeActive := n.streams[free]
	_, vipActive := n.streams[vip]
	_, steadyActive := n.streams[steady]
	n.mu.Unlock()
	if freeActive || !vipActive || !steadyActive {
		t.Fatalf("post-preemption active set wrong: free=%v vip=%v steady=%v", freeActive, vipActive, steadyActive)
	}

	sheds, preempts := count(reg, MetricOverloadSheds), count(reg, MetricOverloadPreempts)
	if sheds != 2 || preempts != 1 {
		t.Fatalf("overload counters: %d sheds (%d preempts), want 2 sheds (1 preempt)", sheds, preempts)
	}
	// The free rider was shed exactly once: the one preemption cancelled
	// its stream and took it out of the active set, and the one refusal
	// was weak's, which never held a stream.
	if freeCtx.Err() == nil {
		t.Fatal("free rider's stream still running after its shed")
	}
}

// TestAdmissionPriorityBeatsStanding pins that an explicitly
// higher-priority request preempts even a higher-standing normal one.
func TestAdmissionPriorityBeatsStanding(t *testing.T) {
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, MaxStreams: 1})
	n.ledger.Credit("rich", 1_000_000)
	n.ledger.Credit("urgent", 1)

	rich := fakeStream("rich", 0)
	if v := n.admitStream(rich); !v.ok {
		t.Fatalf("admit failed: %+v", v)
	}
	v := n.admitStream(fakeStream("urgent", 5))
	if !v.ok || v.victim != rich {
		t.Fatalf("priority-5 request against priority-0 stream: verdict %+v, want preemption", v)
	}
}

// TestAdmissionEqualStandingDoesNotThrash pins the preemption margin:
// two requesters with (near-)equal standing must not preempt each
// other back and forth.
func TestAdmissionEqualStandingDoesNotThrash(t *testing.T) {
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, MaxStreams: 1})
	n.ledger.Credit("a", 100)
	n.ledger.Credit("b", 105) // within the 1.1x margin

	if v := n.admitStream(fakeStream("a", 0)); !v.ok {
		t.Fatalf("admit failed: %+v", v)
	}
	if v := n.admitStream(fakeStream("b", 0)); v.ok {
		t.Fatalf("near-equal standing preempted: %+v", v)
	}
}

// TestShedStreamDoesNotBlockOnVictimWriter pins the preemption
// notification contract: the victim's BUSY frame is written on the
// victim's own connection, whose write lock its serve loop may hold
// across a blocked socket flush. shedStream must cancel the victim and
// return without waiting on that write — blocking here would wedge the
// admitting connection's dispatcher on a third party's socket.
func TestShedStreamDoesNotBlockOnVictimWriter(t *testing.T) {
	reg := metrics.NewRegistry()
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before n.Close's wg.Wait
	notified := make(chan struct{})
	victim := fakeStream("victim", 0)
	victim.cancel = cancel
	victim.notifyBusy = func(code uint16, retryAfterMillis uint32, reason string) {
		close(notified)
		<-release // a wedged connection writer: the flush never returns
	}

	done := make(chan struct{})
	go func() {
		n.shedStream(victim, "test preemption")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shedStream blocked on the victim's connection writer")
	}
	if ctx.Err() == nil {
		t.Fatal("victim not cancelled before shedStream returned")
	}
	select {
	case <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("victim never received its best-effort BUSY notification")
	}
	if sheds, preempts := count(reg, MetricOverloadSheds), count(reg, MetricOverloadPreempts); sheds != 1 || preempts != 1 {
		t.Fatalf("overload counters: %d sheds (%d preempts), want 1 shed (1 preempt)", sheds, preempts)
	}
}

func TestBrownoutEngagesAtThreeQuarters(t *testing.T) {
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, MaxStreams: 4})
	if n.currentBatchBytes() != serveBatchBytes {
		t.Fatal("brownout active with no streams")
	}
	streams := make([]*stream, 0, 4)
	for i := 0; i < 2; i++ {
		s := fakeStream(fairshare.ID(rune('a'+i)), 0)
		n.admitStream(s)
		streams = append(streams, s)
	}
	if n.currentBatchBytes() != serveBatchBytes {
		t.Fatalf("brownout engaged at 2/4 streams")
	}
	s := fakeStream("c", 0)
	n.admitStream(s)
	streams = append(streams, s)
	if n.currentBatchBytes() != serveBatchBytes/2 {
		t.Fatalf("brownout not engaged at 3/4 streams: batch %d", n.currentBatchBytes())
	}
	n.unregisterStream(streams[0])
	if n.currentBatchBytes() != serveBatchBytes {
		t.Fatalf("brownout not lifted at 2/4 streams")
	}
}

// TestAdmissionSteadyStateAllocs is the ISSUE 10 hot-path gate: the
// granted (non-shed) admission fast path — decision, registration,
// realloc, release — allocates nothing in steady state.
func TestAdmissionSteadyStateAllocs(t *testing.T) {
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, MaxStreams: 8})
	s := fakeStream("warm", 0)
	// Warm every map involved: streams, posBuf, bytesOut.
	n.recordServed("warm", 1024)
	for i := 0; i < 3; i++ {
		if v := n.admitStream(s); !v.ok {
			t.Fatalf("warmup admit refused: %+v", v)
		}
		n.unregisterStream(s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v := n.admitStream(s); !v.ok {
			t.Fatal("admit refused mid-gate")
		}
		n.unregisterStream(s)
	})
	if allocs != 0 {
		t.Fatalf("admission fast path allocates %.1f/op, want 0", allocs)
	}
}

// TestAdmissionRefusalScanAllocs gates the at-capacity decision scan
// itself (the frame write on the shed path is allowed to allocate; the
// scan is not).
func TestAdmissionRefusalScanAllocs(t *testing.T) {
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, MaxStreams: 1})
	n.ledger.Credit("holder", 1000)
	if v := n.admitStream(fakeStream("holder", 0)); !v.ok {
		t.Fatalf("admit refused: %+v", v)
	}
	weak := fakeStream("weak", 0)
	allocs := testing.AllocsPerRun(100, func() {
		if v := n.admitStream(weak); v.ok {
			t.Fatal("weak request admitted mid-gate")
		}
	})
	if allocs != 0 {
		t.Fatalf("refusal scan allocates %.1f/op, want 0", allocs)
	}
}

// TestServeStreamDropsExpiredDeadline pins the deadline propagation
// contract (DESIGN.md §14): a stream whose wire-carried deadline has
// passed is dropped before a single byte is served — the requester
// gets a terminal BUSY/CodeExpired and the accounting records it.
func TestServeStreamDropsExpiredDeadline(t *testing.T) {
	reg := metrics.NewRegistry()
	n := admissionNode(t, Config{UploadBytesPerSec: 1e6, Metrics: reg})
	var buf bytes.Buffer
	cw := newConnWriter(&buf)
	s := fakeStream("late", 0)
	s.fileID = 42
	s.deadline = time.Now().Add(-time.Millisecond)

	n.serveStream(context.Background(), cw, s, []*rlnc.Message{{}})

	if got := count(reg, MetricOverloadExpired); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricOverloadExpired, got)
	}
	fr := wire.NewFrameReader(bytes.NewReader(buf.Bytes()))
	b, err := fr.Expect(wire.TypeBusy)
	if err != nil {
		t.Fatalf("expected a BUSY frame: %v", err)
	}
	var bz wire.Busy
	uerr := bz.Unmarshal(b.Bytes())
	b.Release()
	if uerr != nil {
		t.Fatal(uerr)
	}
	if bz.FileID != 42 || bz.Code != wire.CodeExpired {
		t.Fatalf("busy = %+v, want CodeExpired for file 42", bz)
	}
}
