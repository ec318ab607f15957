package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
)

func TestShardedLedgerBasics(t *testing.T) {
	l := NewBoundedLedger(0.5, 64)
	if l.Bound() < 64 {
		t.Fatalf("Bound = %d, want >= 64", l.Bound())
	}
	if got := l.Received("stranger"); got != 0.5 {
		t.Errorf("stranger Received = %v, want initial 0.5", got)
	}
	l.Credit("a", 10)
	l.Credit("a", 5)
	if got := l.Received("a"); !almostEqual(got, 15.5) {
		t.Errorf("a Received = %v, want initial+15", got)
	}
	l.Debit("a", 100) // clamps at zero
	if got := l.Received("a"); got != 0 {
		t.Errorf("after over-debit Received = %v", got)
	}
	l.Credit("a", -3) // ignored
	l.Debit("a", -3)  // ignored
	if got := l.Received("a"); got != 0 {
		t.Errorf("negative amounts changed standing: %v", got)
	}
	// Debiting a stranger pins an entry (the shard has room), so the
	// penalty sticks.
	l.Debit("cheat", 0.2)
	if got := l.Received("cheat"); !almostEqual(got, 0.3) {
		t.Errorf("debited stranger Received = %v, want 0.3", got)
	}
}

func TestShardedLedgerRev(t *testing.T) {
	l := NewBoundedLedger(0, 16)
	r0 := l.Rev()
	l.Credit("a", 1)
	if l.Rev() == r0 {
		t.Error("Credit did not bump revision")
	}
	r1 := l.Rev()
	l.Credit("a", -1)
	if l.Rev() != r1 {
		t.Error("ignored credit bumped revision")
	}
	l.Debit("a", 0.5)
	if l.Rev() == r1 {
		t.Error("Debit did not bump revision")
	}
	r2 := l.Rev()
	l.Decay(0.9)
	if l.Rev() == r2 {
		t.Error("Decay did not bump revision")
	}
}

// TestShardedLedgerBoundAndEviction floods the ledger with far more
// counterparts than its bound and checks memory stays capped, evicted
// mass lands in the tail, and Total is conserved exactly.
func TestShardedLedgerBoundAndEviction(t *testing.T) {
	const bound = 64
	l := NewBoundedLedger(0, bound)
	var want float64
	for i := 0; i < 10*bound; i++ {
		amt := float64(i%7 + 1)
		l.Credit(ID(fmt.Sprintf("peer-%04d", i)), amt)
		want += amt
	}
	if n := l.Entries(); n > l.Bound() {
		t.Errorf("Entries = %d exceeds bound %d", n, l.Bound())
	}
	sum, n := l.Tail()
	if n == 0 || sum <= 0 {
		t.Errorf("no eviction after 10x-bound inserts: tail (%v, %d)", sum, n)
	}
	// Conservation is exact (pure additions commute), not approximate.
	if got := l.Total(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Total = %v, want %v conserved across evictions", got, want)
	}
	// Untracked counterparts answer the initial credit — the tail is a
	// conservation reservoir, never an inheritable standing.
	if got := l.Received("never-seen"); got != 0 {
		t.Errorf("untracked Received = %v, want initial 0", got)
	}
	evicted := ID("peer-0000")
	if _, tracked := l.Snapshot()[evicted]; tracked {
		t.Skip("peer-0000 unexpectedly survived eviction")
	}
	if got := l.Received(evicted); got != 0 {
		t.Errorf("evicted Received = %v, want initial 0 (standing forfeited)", got)
	}
}

// TestShardedLedgerEvictsMinimum checks eviction picks the lowest
// standing: heavy contributors keep exact entries.
func TestShardedLedgerEvictsMinimum(t *testing.T) {
	// Bound 16 = one entry per shard; every same-shard insertion evicts.
	l := NewBoundedLedger(0, 16)
	l.Credit("heavy", 1000)
	s := l.shardFor("heavy")
	// Find another ID in the same shard and credit less.
	var light ID
	for i := 0; ; i++ {
		id := ID(fmt.Sprintf("light-%d", i))
		if l.shardFor(id) == s && id != "heavy" {
			light = id
			break
		}
	}
	l.Credit(light, 1)
	if got := l.Received("heavy"); !almostEqual(got, 1000) {
		t.Errorf("heavy contributor evicted: Received = %v", got)
	}
	sum, n := l.Tail()
	if n != 1 || !almostEqual(sum, 1) {
		t.Errorf("tail = (%v, %d), want the light entry (1, 1)", sum, n)
	}
}

func TestShardedLedgerDecay(t *testing.T) {
	l := NewBoundedLedger(0, 16)
	l.Credit("a", 100)
	// Force an eviction so the tail has mass.
	s := l.shardFor("a")
	for i := 0; ; i++ {
		id := ID(fmt.Sprintf("b-%d", i))
		if l.shardFor(id) == s {
			l.Credit(id, 10)
			break
		}
	}
	before := l.Total()
	l.Decay(0.5)
	if got := l.Total(); !almostEqual(got, before/2) {
		t.Errorf("Total after Decay(0.5) = %v, want %v", got, before/2)
	}
	if got := l.Received("a"); !almostEqual(got, 50) {
		t.Errorf("tracked entry after decay = %v, want 50", got)
	}
	l.Decay(1.5) // out of range: ignored
	l.Decay(-1)
	if got := l.Total(); !almostEqual(got, before/2) {
		t.Errorf("out-of-range Decay changed Total: %v", got)
	}
}

// TestLedgerDebitStrangerInFullShard pins what the tail design promises
// a slashed stranger: the penalty sticks while the shard has room, and
// in a full shard the freshly pinned entry is the minimum, is evicted
// by the same Debit, and the stranger reads the initial credit again.
func TestLedgerDebitStrangerInFullShard(t *testing.T) {
	// Bound 16 = one entry per shard.
	l := NewBoundedLedger(1, 16)
	l.Debit("cheat", 0.75)
	if got := l.Received("cheat"); got != 0.25 {
		t.Fatalf("roomy shard: slashed stranger reads %v, want 0.25", got)
	}

	l = NewBoundedLedger(1, 16)
	l.Credit("tenant", 10)
	s := l.shardFor("tenant")
	var cheat ID
	for i := 0; ; i++ {
		if cheat = ID(fmt.Sprintf("cheat-%d", i)); l.shardFor(cheat) == s {
			break
		}
	}
	l.Debit(cheat, 0.75)
	if got := l.Received(cheat); got != 1 {
		t.Errorf("full shard: slashed stranger reads %v, want the initial credit 1", got)
	}
	if got := l.Received("tenant"); got != 11 {
		t.Errorf("tenant displaced by a slashed stranger: %v", got)
	}
	if sum, n := l.Tail(); sum != 0.25 || n != 1 {
		t.Errorf("tail = (%v, %d), want the slashed remainder (0.25, 1)", sum, n)
	}
}

// mapOracle is the exact pairwise ledger the paper describes — one map,
// no bound — kept as the reference the real one is compared against.
type mapOracle struct {
	initial  float64
	received map[ID]float64
}

func (o *mapOracle) read(id ID) float64 {
	if v, ok := o.received[id]; ok {
		return v
	}
	return o.initial
}
func (o *mapOracle) credit(id ID, amt float64) { o.received[id] = o.read(id) + amt }
func (o *mapOracle) debit(id ID, amt float64) {
	o.received[id] = math.Max(0, o.read(id)-amt)
}
func (o *mapOracle) decay(f float64) {
	for id := range o.received {
		o.received[id] *= f
	}
}

// TestLedgerMatchesMapOracle: while no shard holds more than its cap
// (Bound/16 = 256 counterparts) the ledger is the exact map — the same
// float operations in the same order per entry, so readings are
// bit-identical — and nothing is evicted. 2 000 ids put ≈ 125 in each
// shard; the busiest is checked to be under the cap so the premise, not
// luck, holds the test up.
func TestLedgerMatchesMapOracle(t *testing.T) {
	ids := make([]ID, 2000)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("peer-%04d", i))
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(DefaultInitialCredit)
		o := &mapOracle{initial: DefaultInitialCredit, received: map[ID]float64{}}
		for step := 0; step < 20000; step++ {
			id := ids[rng.Intn(len(ids))]
			switch amt := rng.Float64() * 100; rng.Intn(10) {
			case 0:
				l.Debit(id, amt)
				o.debit(id, amt)
			case 1:
				if rng.Intn(50) == 0 {
					f := 0.5 + rng.Float64()/2
					l.Decay(f)
					o.decay(f)
				}
			default:
				l.Credit(id, amt)
				o.credit(id, amt)
			}
			if got, want := l.Received(id), o.read(id); got != want {
				t.Fatalf("seed %d step %d: Received(%s) = %v, oracle %v", seed, step, id, got, want)
			}
		}
		for i := range l.shards {
			if n := len(l.shards[i].received); n > l.perShard {
				t.Fatalf("seed %d: shard %d holds %d > cap %d", seed, i, n, l.perShard)
			}
		}
		if sum, n := l.Tail(); sum != 0 || n != 0 {
			t.Fatalf("seed %d: evicted below the cap: tail (%v, %d)", seed, sum, n)
		}
		if snap := l.Snapshot(); !reflect.DeepEqual(snap, o.received) {
			t.Fatalf("seed %d: Snapshot differs from the oracle (%d vs %d entries)", seed, len(snap), len(o.received))
		}
		// Total sums in map order, so only the last bits may differ.
		var want float64
		for _, v := range o.received {
			want += v
		}
		if got := l.Total(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("seed %d: Total = %v, oracle %v", seed, got, want)
		}
	}
}

func TestShardedLedgerConcurrency(t *testing.T) {
	l := NewBoundedLedger(DefaultInitialCredit, 128).Instrument(metrics.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ID(fmt.Sprintf("w%d-p%d", w, i%50))
				l.Credit(id, 1)
				_ = l.Received(id)
				if i%100 == 0 {
					l.Debit(id, 0.5)
					l.Decay(0.99)
					_ = l.Total()
					_ = l.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Entries() > l.Bound() {
		t.Errorf("Entries %d exceeds bound %d after concurrent use", l.Entries(), l.Bound())
	}
}

// TestShardedCheckpointRoundtrip saves a ledger that has evicted
// through the Checkpointer and recovers it: bound, entries and tail all
// survive.
func TestShardedCheckpointRoundtrip(t *testing.T) {
	efs := fsx.NewErrFS(1)
	if err := efs.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	l := NewBoundedLedger(0.25, 16)
	l.Credit("alice", 100)
	l.Credit("bob", 40)
	// Evict something so the tail is non-trivial.
	s := l.shardFor("alice")
	for i := 0; ; i++ {
		id := ID(fmt.Sprintf("x-%d", i))
		if l.shardFor(id) == s {
			l.Credit(id, 1)
			break
		}
	}
	c := NewCheckpointer(CheckpointConfig{Ledger: l, Path: "/d/ledger", FS: efs})
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	sl, rec, err := RecoverLedger(efs, "/d/ledger", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Loaded || rec.Gen != 1 || rec.CorruptSlots != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if sl.Bound() != l.Bound() {
		t.Errorf("recovered bound %d, want %d", sl.Bound(), l.Bound())
	}
	if !almostEqual(sl.Received("alice"), l.Received("alice")) {
		t.Errorf("alice = %v, want %v", sl.Received("alice"), l.Received("alice"))
	}
	wantSum, wantN := l.Tail()
	gotSum, gotN := sl.Tail()
	if !almostEqual(gotSum, wantSum) || gotN != wantN {
		t.Errorf("tail = (%v, %d), want (%v, %d)", gotSum, gotN, wantSum, wantN)
	}
	if !almostEqual(sl.Total(), l.Total()) {
		t.Errorf("Total = %v, want %v", sl.Total(), l.Total())
	}
}

// BenchmarkLedgerRealloc: a 100k-distinct-requester workload holds
// memory at the bound and a realloc tick stays O(active requesters),
// 0 allocs/op.
func BenchmarkLedgerRealloc(b *testing.B) {
	const distinct = 100_000
	const active = 256 // requesters in one realloc tick
	ids := make([]ID, distinct)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("peer-%06d", i))
	}
	reqs := make([]Requester, active)
	for i := range reqs {
		reqs[i] = Requester{ID: ids[i*(distinct/active)]}
	}
	l := NewLedger(DefaultInitialCredit)
	for _, id := range ids {
		l.Credit(id, 1)
	}
	if l.Entries() > l.Bound() {
		b.Fatalf("Entries %d exceeds bound %d", l.Entries(), l.Bound())
	}
	p := PairwiseProportional{}
	req := AllocRequest{Capacity: 1e6, Requesters: reqs, Ledger: l, Scratch: make(Grants, 0, active)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Scratch = p.Allocate(req)[:0]
	}
}
