package dht

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymshare/internal/wire"
)

// startNode binds a loopback port and serves a node advertising it.
func startNode(t testing.TB) *Node { return listenNode(t, Config{}) }

// listenNode binds a loopback port, creates a node from cfg advertising
// it, and answers the node's RPCs there until the test ends.
func listenNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Advertise = ln.Addr().String()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go serveRPCs(ln, n)
	t.Cleanup(func() {
		ln.Close()
		n.Close()
	})
	return n
}

// serveRPCs answers n's RPCs on ln the way a hosting peer does: each
// connection carries one request frame, handed to HandleRPC.
func serveRPCs(ln net.Listener, n *Node) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(DefaultRPCTimeout))
			typ, b, err := wire.NewFrameReader(conn).Next()
			if err != nil {
				return
			}
			defer b.Release()
			if reply, body, ok := n.HandleRPC(typ, b.Bytes()); ok {
				_ = wire.NewFrameWriter(conn).WriteFrame(reply, body)
			}
		}()
	}
}

// buildNetwork boots count nodes, all joined through the first.
func buildNetwork(t *testing.T, count int) []*Node {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i] = startNode(t)
	}
	for i := 1; i < count; i++ {
		if err := nodes[i].Join(ctx, nodes[0].Addr()); err != nil {
			t.Fatalf("node %d join: %v", i, err)
		}
	}
	return nodes
}

func TestIDHelpers(t *testing.T) {
	a := NodeIDFromAddr("host:1")
	b := NodeIDFromAddr("host:2")
	if a == b {
		t.Fatal("distinct addresses produced identical ids")
	}
	if a != NodeIDFromAddr("host:1") {
		t.Fatal("id derivation not deterministic")
	}
	parsed, err := ParseID(a.String())
	if err != nil || parsed != a {
		t.Fatalf("ParseID round trip: %v", err)
	}
	if _, err := ParseID("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseID("abcd"); err == nil {
		t.Error("short id accepted")
	}
	if xorDistance(a, a) != (ID{}) {
		t.Error("self distance not zero")
	}
	if !lessDistance(a, a, b) {
		t.Error("a not closest to itself")
	}
}

func TestContactParse(t *testing.T) {
	good := Contact{ID: NodeIDFromAddr("x:1").String(), Addr: "x:1"}
	if _, err := good.parse(); err != nil {
		t.Fatal(err)
	}
	if _, err := (Contact{ID: "bad", Addr: "x"}).parse(); err == nil {
		t.Error("bad id accepted")
	}
	for _, addr := range []string{"", "x", "client/x:1:2", ":7272", "0.0.0.0:7272", "[::]:7272"} {
		if _, err := (Contact{ID: good.ID, Addr: addr}).parse(); err == nil {
			t.Errorf("unroutable addr %q accepted", addr)
		}
	}
}

func TestTableObserveClosestEvict(t *testing.T) {
	self := NodeIDFromAddr("self:0")
	tb := newTable(self, 4)
	for i := 0; i < 10; i++ {
		addr := fmt.Sprintf("n%d:1", i)
		tb.observe(parsedContact{id: NodeIDFromAddr(addr), addr: addr})
	}
	if tb.size() != 4 {
		t.Fatalf("table size = %d, want cap 4", tb.size())
	}
	// Self is never stored.
	tb.observe(parsedContact{id: self, addr: "self:0"})
	if tb.size() != 4 {
		t.Error("self was stored")
	}
	// closest returns sorted-by-distance contacts.
	target := NodeIDFromAddr("t:9")
	cs := tb.closest(target, 3)
	for i := 1; i < len(cs); i++ {
		if lessDistance(target, cs[i].id, cs[i-1].id) {
			t.Fatal("closest not sorted")
		}
	}
}

func TestJoinPopulatesTables(t *testing.T) {
	nodes := buildNetwork(t, 8)
	for i, n := range nodes {
		if n.TableSize() == 0 {
			t.Errorf("node %d knows nobody", i)
		}
	}
}

func TestRandomInBand(t *testing.T) {
	self := NodeIDFromAddr("self")
	for band := 0; band < IDLen*8; band++ {
		if got := bucketIndex(self, randomInBand(self, band)); got != band {
			t.Fatalf("randomInBand(%d) lands in band %d", band, got)
		}
	}
}

// TestJoinLearnsEveryFartherBand checks that a joiner ends up with a
// contact in every distance band farther than its own neighbourhood in
// which the bootstrap knows a node — not only in the subtree its self
// lookup walks. A band left empty strands lookups for keys in it.
func TestJoinLearnsEveryFartherBand(t *testing.T) {
	nodes := buildNetwork(t, 48)
	joiner := startNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.Join(ctx, nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	have := make(map[int]bool)
	for _, c := range joiner.table.closest(joiner.id, len(nodes)+1) {
		have[bucketIndex(joiner.id, c.id)] = true
	}
	depth := bucketIndex(joiner.id, joiner.table.closest(joiner.id, 1)[0].id)
	boot := append(nodes[0].table.closest(joiner.id, len(nodes)), parsedContact{id: nodes[0].id})
	for _, c := range boot {
		if b := bucketIndex(joiner.id, c.id); b < depth && !have[b] {
			t.Errorf("joiner has no contact in band %d; the bootstrap knows %s there", b, c.addr)
		}
	}
}

func TestAnnounceAndLookupAcrossNetwork(t *testing.T) {
	nodes := buildNetwork(t, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	key := KeyFromFileID(12345)
	if err := nodes[3].Announce(ctx, key); err != nil {
		t.Fatal(err)
	}
	if err := nodes[7].Announce(ctx, key); err != nil {
		t.Fatal(err)
	}

	// Every node can resolve the key to both holders' own addresses,
	// regardless of where they announced.
	want := []string{nodes[3].Addr(), nodes[7].Addr()}
	sort.Strings(want)
	for i, n := range nodes {
		got, err := n.Lookup(ctx, key)
		if err != nil {
			t.Fatalf("node %d lookup: %v", i, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("node %d lookup = %v, want %v", i, got, want)
		}
	}
}

// TestCappedTableAnnouncePlacement pins the replica-placement fix:
// with tight TableCaps, Announce must place replicas on the lookup's
// converged shortlist (the true K closest), not on whatever survived
// in the announcer's thinned table — otherwise readers, whose
// iterative lookups do converge globally, miss every replica.
func TestCappedTableAnnouncePlacement(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const n = 40
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = listenNode(t, Config{TableCap: 6})
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(ctx, nodes[0].Addr()); err != nil {
			t.Fatalf("node %d join: %v", i, err)
		}
	}
	// One bucket-refresh wave so every table reflects the full swarm,
	// not its join-time snapshot.
	for _, node := range nodes {
		node.Refresh(ctx)
	}

	key := KeyFromFileID(777)
	if err := nodes[1].Announce(ctx, key); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		got, err := node.Lookup(ctx, key)
		if err != nil {
			t.Fatalf("node %d lookup with capped tables: %v", i, err)
		}
		if len(got) != 1 || got[0] != nodes[1].Addr() {
			t.Fatalf("node %d lookup = %v, want [%s]", i, got, nodes[1].Addr())
		}
	}
}

// TestTableEvictionKeepsDistanceBands pins the capped table's spread:
// eviction trims the crowded far bands but never empties them, so a
// saturated table still spans multiple distance scales (the property
// greedy routing needs to make progress across the ring).
func TestTableEvictionKeepsDistanceBands(t *testing.T) {
	self := NodeIDFromAddr("self:0")
	tb := newTable(self, 8)
	for i := 0; i < 500; i++ {
		addr := fmt.Sprintf("n%d:1", i)
		tb.observe(parsedContact{id: NodeIDFromAddr(addr), addr: addr})
	}
	if tb.size() != 8 {
		t.Fatalf("table size = %d, want cap 8", tb.size())
	}
	bands := make(map[int]int)
	for _, c := range tb.closest(self, 8) {
		bands[bucketIndex(self, c.id)]++
	}
	if len(bands) < 3 {
		t.Fatalf("capped table collapsed to %d distance bands: %v", len(bands), bands)
	}
	for band, count := range bands {
		if count > 4 {
			t.Fatalf("band %d hoards %d of 8 slots: %v", band, count, bands)
		}
	}
}

func TestLookupUnknownKey(t *testing.T) {
	nodes := buildNetwork(t, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_, err := nodes[2].Lookup(ctx, KeyFromFileID(999999))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown key error = %v, want ErrNotFound", err)
	}
}

func TestLookupSurvivesReplicaFailures(t *testing.T) {
	nodes := buildNetwork(t, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	key := KeyFromFileID(777)
	if err := nodes[1].Announce(ctx, key); err != nil {
		t.Fatal(err)
	}
	// Kill a third of the network (values live on K=8 replicas, so a
	// few must survive).
	for i := 2; i < 6; i++ {
		nodes[i].Close()
	}
	got, err := nodes[11].Lookup(ctx, key)
	if err != nil {
		t.Fatalf("lookup after failures: %v", err)
	}
	if len(got) != 1 || got[0] != nodes[1].Addr() {
		t.Fatalf("lookup = %v, want [%s]", got, nodes[1].Addr())
	}
}

func TestValueExpiry(t *testing.T) {
	n, err := New(Config{MaxTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	n.now = func() time.Time { return now }
	key := KeyFromFileID(5)
	n.storeLocal(key, "v1", 60)   // 1 minute
	n.storeLocal(key, "v2", 7200) // capped at 1 hour
	if got := n.loadLocal(key); len(got) != 2 {
		t.Fatalf("loadLocal = %v", got)
	}
	now = now.Add(2 * time.Minute)
	if got := n.loadLocal(key); len(got) != 1 || got[0] != "v2" {
		t.Fatalf("after short expiry = %v", got)
	}
	now = now.Add(2 * time.Hour)
	if got := n.loadLocal(key); len(got) != 0 {
		t.Fatalf("after cap expiry = %v", got)
	}
}

// TestStoreKeysBounded floods one node with STOREs for fresh keys over
// real RPCs: its table never holds more than MaxKeys keys,
// the soonest-expiring keys go first, and once values expire a new
// STORE reclaims their keys without anyone looking them up.
func TestStoreKeysBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	target, err := New(Config{Advertise: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	var offset atomic.Int64 // the node's clock runs this far ahead of real time
	target.now = func() time.Time { return time.Now().Add(time.Duration(offset.Load())) }
	go serveRPCs(ln, target)
	defer target.Close()
	// A STORE is kept only as its sender's own address, so the dialer
	// advertises one; nothing needs to listen there.
	dialer, err := New(Config{Advertise: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	to := parsedContact{id: target.id, addr: target.Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// store sends count STOREs for fresh keys on 8 connections at a
	// time and returns the keys.
	var next uint64
	store := func(count int) []ID {
		keys := make([]ID, count)
		for i := range keys {
			next++
			keys[i] = KeyFromFileID(next)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < count; i += 8 {
					if err := dialer.storeRPC(ctx, to, keys[i]); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return keys
	}
	keyCount := func() int {
		target.mu.Lock()
		defer target.mu.Unlock()
		return len(target.values)
	}
	held := func(keys []ID) (n int) {
		target.mu.Lock()
		defer target.mu.Unlock()
		for _, k := range keys {
			if _, ok := target.values[k]; ok {
				n++
			}
		}
		return n
	}

	// Three batches of MaxKeys keys, each stored one second later on the
	// node's clock than the one before: every key of a batch expires
	// after every key of the batches before it.
	var batches [3][]ID
	for i := range batches {
		offset.Store(int64(i) * int64(time.Second))
		batches[i] = store(MaxKeys)
	}
	if got := keyCount(); got != MaxKeys {
		t.Fatalf("%d keys stored after %d STOREs, want the cap %d", got, 3*MaxKeys, MaxKeys)
	}
	if got := held(batches[0]) + held(batches[1]); got != 0 {
		t.Errorf("%d keys of the two soonest-expiring batches survived", got)
	}
	if got := held(batches[2]); got != MaxKeys {
		t.Errorf("%d of the last batch's %d keys held, want all", got, MaxKeys)
	}

	// Past every value's expiry, one STORE for a new key reclaims them.
	offset.Store(int64(2*time.Second + DefaultTTL + time.Minute))
	last := store(1)
	if got := keyCount(); got != 1 || held(last) != 1 {
		t.Fatalf("%d keys after expiry and one STORE, want only the new one", got)
	}
}

// TestStoreKeepsOnlySendersOwnAddress: a replica keeps a STORE's value
// only when it is the sender's own routable address, the one record a
// holder writes. Any other STORE gets no reply and stores nothing.
func TestStoreKeepsOnlySendersOwnAddress(t *testing.T) {
	n, err := New(Config{Advertise: "replica:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	key := KeyFromFileID(9)
	store := func(fromAddr, value string) bool {
		body, err := json.Marshal(storeReq{
			rpcHeader: rpcHeader{FromID: NodeIDFromAddr(fromAddr).String(), FromAddr: fromAddr},
			Key:       key.String(),
			Value:     value,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, ok := n.HandleRPC(typeStore, body)
		return ok
	}
	for _, tc := range []struct{ name, from, value string }{
		{"another holder's address", "sender:1", "holder:1"},
		{"no sender address", "", "holder:1"},
		{"no sender address or value", "", ""},
		{"wildcard sender", "[::]:7070", "[::]:7070"},
		{"unspecified IPv4 sender", "0.0.0.0:7070", "0.0.0.0:7070"},
		{"port-only sender", ":7070", ":7070"},
	} {
		if store(tc.from, tc.value) {
			t.Errorf("%s: STORE answered", tc.name)
		}
		if got := n.loadLocal(key); len(got) != 0 {
			t.Fatalf("%s: replica holds %v, want nothing", tc.name, got)
		}
	}
	if !store("holder:1", "holder:1") {
		t.Fatal("STORE of the sender's own address not answered")
	}
	if got := n.loadLocal(key); len(got) != 1 || got[0] != "holder:1" {
		t.Fatalf("replica holds %v, want [holder:1]", got)
	}
}

// TestTableKeepsContactThroughFailures: a contact survives fewer than
// maxFails failed RPCs in a row, an answer or an observation clears the
// count, the maxFails-th failure evicts it, and the last contact is
// never evicted.
func TestTableKeepsContactThroughFailures(t *testing.T) {
	tb := newTable(NodeIDFromAddr("self:0"), 8)
	a := parsedContact{id: NodeIDFromAddr("a:1"), addr: "a:1"}
	b := parsedContact{id: NodeIDFromAddr("b:1"), addr: "b:1"}
	tb.observe(a)
	tb.observe(b)
	fail := func(c parsedContact, times int) {
		for i := 0; i < times; i++ {
			tb.outcome(c.id, false)
		}
	}
	fail(a, maxFails-1)
	tb.outcome(a.id, true)
	fail(a, maxFails-1)
	tb.observe(a)
	fail(a, maxFails-1)
	if tb.size() != 2 {
		t.Fatalf("table size = %d after %d failures in a row, want both contacts kept", tb.size(), maxFails-1)
	}
	fail(a, 1)
	if got := tb.closest(a.id, 2); len(got) != 1 || got[0].id != b.id {
		t.Fatalf("table holds %v after %d failures in a row, want only b", got, maxFails)
	}
	fail(b, 2*maxFails)
	if tb.size() != 1 {
		t.Fatal("the last contact was evicted")
	}
}

func TestJoinDeadBootstrap(t *testing.T) {
	n := startNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Join(ctx, "127.0.0.1:1"); err == nil {
		t.Error("join via dead bootstrap succeeded")
	}
	if n.TableSize() != 0 {
		t.Error("dead bootstrap left in table")
	}
}

func TestNewNodeValidation(t *testing.T) {
	// A node's address is the one record it announces, so one no other
	// host can dial is refused: no port, or a wildcard host.
	for _, addr := range []string{"no-port", ":1", "0.0.0.0:1", "[::]:1"} {
		if n, err := New(Config{Advertise: addr}); err == nil {
			n.Close()
			t.Errorf("unroutable advertise address %q accepted", addr)
		}
	}
	n, err := New(Config{})
	if err != nil {
		t.Fatalf("client-only node: %v", err)
	}
	defer n.Close()
	if h := n.header(); h.FromAddr != "" || h.FromID != n.ID().String() {
		t.Errorf("client-only header = %+v, want its id and no address", h)
	}
}

// TestClientOnlyNodeStaysOutOfTables joins a client-only node, which no
// peer serves and so no one can dial, and has it look up a key a served
// node announced: no served node may record it as a contact. It cannot
// announce, since it has no address of its own to offer.
func TestClientOnlyNodeStaysOutOfTables(t *testing.T) {
	nodes := buildNetwork(t, 3)
	client, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Join(ctx, nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := client.Announce(ctx, KeyFromFileID(3)); !errors.Is(err, ErrClientOnly) {
		t.Fatalf("client-only announce = %v, want ErrClientOnly", err)
	}
	if err := nodes[1].Announce(ctx, KeyFromFileID(3)); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Lookup(ctx, KeyFromFileID(3)); err != nil || len(got) != 1 || got[0] != nodes[1].Addr() {
		t.Fatalf("client lookup = %v, %v; want [%s]", got, err, nodes[1].Addr())
	}
	for i, n := range nodes {
		for _, c := range n.table.closest(client.ID(), len(nodes)+1) {
			if c.id == client.ID() || c.addr == "" {
				t.Errorf("node %d recorded the client-only node as %+v", i, c)
			}
		}
		if got := n.TableSize(); got != len(nodes)-1 {
			t.Errorf("node %d knows %d contacts, want the %d other served nodes", i, got, len(nodes)-1)
		}
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n := startNode(t)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	// A 12-node network with one announced key: steady-state resolve
	// latency including the iterative routing.
	nodes := make([]*Node, 12)
	for i := range nodes {
		nodes[i] = startNode(b)
	}
	ctx := context.Background()
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Join(ctx, nodes[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	key := KeyFromFileID(42)
	if err := nodes[1].Announce(ctx, key); err != nil {
		b.Fatal(err)
	}
	// Benchmark from a node that is NOT a replica-local hit if
	// possible; worst case it is, which only makes the number better.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[11].Lookup(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}
