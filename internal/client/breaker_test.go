package client

// White-box coverage of the per-peer health registry and circuit
// breaker: trip on consecutive failures, cooldown with a single
// half-open probe, doubled quarantine on probe failure, recovery on
// success, and the hedge-delay estimator.

import (
	"testing"
	"time"
)

// testRegistry builds a registry with a stepped fake clock.
func testRegistry(opt Options) (*healthRegistry, *time.Time) {
	var m clientMetrics
	h := newHealthRegistry(&m, opt.withDefaults())
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }
	return h, &now
}

// admitted reports whether the chunk ladder would hand addr work now:
// as a closed-breaker rung or a probe candidate, not held back as
// cooling.
func admitted(h *healthRegistry, addr string) bool {
	_, _, coolFrom := h.order([]*peerLink{{addr: addr}})
	return coolFrom == 1
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	h, _ := testRegistry(Options{BreakerThreshold: 3})
	for i := 0; i < 2; i++ {
		h.recordFailure("p")
	}
	if !admitted(h, "p") {
		t.Fatal("breaker open below threshold")
	}
	h.recordFailure("p")
	if admitted(h, "p") {
		t.Fatal("breaker still closed after threshold consecutive failures")
	}
	if s := h.snapshot("p"); s.Breaker != "open" || s.ConsecFails != 3 {
		t.Fatalf("snapshot %+v, want open with 3 consecutive failures", s)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	h, _ := testRegistry(Options{BreakerThreshold: 2})
	h.recordFailure("p")
	h.recordSuccess("p", 0)
	h.recordFailure("p")
	if !admitted(h, "p") {
		t.Fatal("interleaved success did not reset the failure run")
	}
}

func TestBreakerHalfOpenSingleProbeAndRecovery(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	if admitted(h, "p") || h.beginProbe("p") {
		t.Fatal("probe granted inside the cooldown")
	}
	*now = now.Add(time.Second)
	if !admitted(h, "p") {
		t.Fatal("cooled-down breaker not a probe candidate")
	}
	if !h.beginProbe("p") {
		t.Fatal("probe slot not granted after cooldown")
	}
	// The slot is exclusive until the probe resolves.
	if h.beginProbe("p") || admitted(h, "p") {
		t.Fatal("second concurrent probe granted")
	}
	if s := h.snapshot("p"); s.Breaker != "half-open" {
		t.Fatalf("breaker %s, want half-open", s.Breaker)
	}
	h.recordSuccess("p", 10*time.Millisecond)
	if s := h.snapshot("p"); s.Breaker != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", s.Breaker)
	}
}

func TestBreakerFailedProbeDoublesCooldown(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted")
	}
	h.recordFailure("p") // probe failed: re-open, cooldown doubles to 2s
	if admitted(h, "p") {
		t.Fatal("breaker not re-opened after failed probe")
	}
	*now = now.Add(time.Second)
	if h.beginProbe("p") {
		t.Fatal("probe granted after only the original cooldown")
	}
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted after the doubled cooldown")
	}
}

func TestHealthOrderRanksAndQuarantines(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	fast := &peerLink{addr: "fast"}
	slow := &peerLink{addr: "slow"}
	sick := &peerLink{addr: "sick"}
	h.recordSuccess("fast", 10*time.Millisecond)
	h.recordSuccess("slow", 500*time.Millisecond)

	// Every breaker closed: the links themselves, all launched at once.
	links := []*peerLink{slow, sick, fast}
	ladder, probeFrom, coolFrom := h.order(links)
	if &ladder[0] != &links[0] || probeFrom != 3 || coolFrom != 3 {
		t.Fatalf("all closed: probeFrom %d, coolFrom %d, want the links as given", probeFrom, coolFrom)
	}

	// A quarantined peer is held back behind the closed ones, which
	// keep the order given: latency ranks nothing.
	h.recordFailure("sick")
	ladder, probeFrom, coolFrom = h.order(links)
	if len(ladder) != 3 || probeFrom != 2 || coolFrom != 2 || ladder[2] != sick {
		t.Fatalf("ladder %d long, probeFrom %d, coolFrom %d: quarantined peer not held back as the last resort",
			len(ladder), probeFrom, coolFrom)
	}
	if ladder[0] != slow || ladder[1] != fast {
		t.Fatalf("ladder order [%s %s], want the closed peers as given", ladder[0].addr, ladder[1].addr)
	}
	if !h.coolingDown("sick") || h.coolingDown("fast") {
		t.Fatal("coolingDown disagrees with the breakers")
	}

	// After the cooldown the sick peer rejoins as a probe candidate,
	// after the closed rungs.
	*now = now.Add(time.Second)
	ladder, probeFrom, coolFrom = h.order([]*peerLink{sick, fast, slow})
	if len(ladder) != 3 || probeFrom != 2 || coolFrom != 3 || ladder[2] != sick {
		t.Fatalf("probe candidate placement wrong: len %d probeFrom %d coolFrom %d last %s",
			len(ladder), probeFrom, coolFrom, ladder[len(ladder)-1].addr)
	}
	if h.coolingDown("sick") {
		t.Fatal("a cooled-down peer still reads as cooling: its session set would not dial it")
	}
}

func TestHedgeDelayEstimator(t *testing.T) {
	h, _ := testRegistry(Options{})
	if d := h.hedgeDelay(); d != DefaultHedgeDelay {
		t.Fatalf("cold-start hedge delay %v, want %v", d, DefaultHedgeDelay)
	}
	for i := 0; i < 20; i++ {
		h.recordSuccess("p", 100*time.Millisecond)
	}
	d := h.hedgeDelay()
	if d != 150*time.Millisecond { // p95 of identical samples x1.5 headroom
		t.Fatalf("adaptive hedge delay %v, want 150ms", d)
	}
}

// TestShedProbeReleasesHalfOpenSlot pins the probe-slot release: a
// half-open probe stream that ends in a BUSY shed proved the peer
// alive, so the breaker closes and the slot frees. Classifying the
// shed without touching the breaker used to strand the peer in
// half-open with probing set forever — permanently held back from the
// chunk ladder.
func TestShedProbeReleasesHalfOpenSlot(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted after cooldown")
	}
	h.recordShed("p")
	if s := h.snapshot("p"); s.Breaker != "closed" || s.Sheds != 1 {
		t.Fatalf("snapshot %+v after shed probe, want closed breaker with 1 shed", s)
	}
	if !admitted(h, "p") {
		t.Fatal("peer still excluded after its shed probe resolved")
	}
	ladder, probeFrom, _ := h.order([]*peerLink{{addr: "p"}})
	if len(ladder) != 1 || probeFrom != 1 {
		t.Fatalf("ladder len %d probeFrom %d, want the peer back as a closed rung", len(ladder), probeFrom)
	}
}

func TestShedsNeverTripBreaker(t *testing.T) {
	h, _ := testRegistry(Options{BreakerThreshold: 1})
	for i := 0; i < 10; i++ {
		h.recordShed("busy")
	}
	if !admitted(h, "busy") {
		t.Fatal("sheds tripped the breaker; only failures may")
	}
	if s := h.snapshot("busy"); s.Sheds != 10 || s.Failures != 0 || s.Breaker != "closed" {
		t.Fatalf("snapshot %+v, want 10 sheds, 0 failures and a closed breaker", s)
	}
}
