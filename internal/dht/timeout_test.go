package dht

// RPC budget tests: a wedged remote must cost the caller at most its
// own context budget, never the node's full RPCTimeout — otherwise a
// netsim latency or partition fault can stall an Alpha-parallel lookup
// far past its deadline.

import (
	"context"
	"net"
	"testing"
	"time"
)

// stallListener accepts connections and never answers — the
// application-dead remote that exposes missing deadline plumbing.
func stallListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, say nothing
		}
	}()
	return ln
}

func TestRPCHonorsCallerDeadline(t *testing.T) {
	ln := stallListener(t)
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := n.Ping(ctx, ln.Addr().String()); err == nil {
		t.Fatal("ping of a stalled remote succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("ping against 150ms budget took %v (fixed rpcTimeout leaked through)", elapsed)
	}
}

func TestRPCHonorsCallerCancellation(t *testing.T) {
	ln := stallListener(t)
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// No deadline at all: only cancellation can unwedge the read.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := time.Now()
	go func() { errc <- n.Ping(ctx, ln.Addr().String()) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled ping succeeded")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to unwedge the RPC", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation never unwedged the RPC (pre-fix behaviour: blocks the full rpcTimeout)")
	}
}

func TestLookupBoundedByContextUnderStalls(t *testing.T) {
	// A shortlist full of stalling contacts: the whole iterative lookup
	// must return once the context budget is spent, not 3s per wave.
	stall := stallListener(t)
	n, err := New(Config{RPCTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 6; i++ {
		c, err := Contact{ID: NodeIDFromAddr(string(rune('a' + i))).String(), Addr: stall.Addr().String()}.parse()
		if err != nil {
			t.Fatal(err)
		}
		n.table.observe(c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := n.Lookup(ctx, KeyFromFileID(7)); err == nil {
		t.Fatal("lookup across stalled contacts succeeded")
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("lookup with a 200ms budget took %v", elapsed)
	}
}
