package dht

// Concurrency coverage for the routing table and the Alpha-parallel
// lookup path, meant to run under -race (make race-dht): lookups and
// announces from many goroutines while RPC handlers observe senders
// concurrently.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func raceContact(t *testing.T, i int) parsedContact {
	t.Helper()
	c, err := Contact{
		ID:   NodeIDFromAddr(fmt.Sprintf("race-%d", i)).String(),
		Addr: fmt.Sprintf("10.0.0.%d:7", i%250+1),
	}.parse()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTableConcurrentObserveClosestRandom(t *testing.T) {
	tb := newTable(NodeIDFromAddr("self"), 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 4 {
				case 0:
					tb.observe(raceContact(t, g*1000+i))
				case 1:
					tb.closest(NodeIDFromAddr(fmt.Sprintf("t%d", i)), K)
				case 2:
					tb.size()
				case 3:
					tb.remove(raceContact(t, g*1000+i-3).id)
				}
			}
		}(g)
	}
	wg.Wait()
	if tb.size() > 64 {
		t.Fatalf("table exceeded its cap: %d", tb.size())
	}
}

func TestConcurrentLookupsAndAnnounces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const nodes = 6
	net_ := make([]*Node, nodes)
	for i := range net_ {
		net_[i] = startNode(t)
	}
	for i := 1; i < nodes; i++ {
		if err := net_[i].Join(ctx, net_[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent announces and lookups of overlapping keys from every
	// node, racing against table refreshes.
	var wg sync.WaitGroup
	errs := make(chan error, nodes*3)
	for i, n := range net_ {
		wg.Add(3)
		go func(i int, n *Node) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				key := KeyFromFileID(uint64(k % 3))
				if err := n.Announce(ctx, key, fmt.Sprintf("peer-%d-%d:1", i, k), time.Minute); err != nil {
					errs <- fmt.Errorf("announce node %d key %d: %w", i, k, err)
					return
				}
			}
		}(i, n)
		go func(i int, n *Node) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				// Keys may not be announced yet; ErrNotFound is fine, a
				// data race is not.
				_, _ = n.Lookup(ctx, KeyFromFileID(uint64(k%3)))
			}
		}(i, n)
		go func(i int, n *Node) {
			defer wg.Done()
			n.Refresh(ctx)
			n.TableSize()
		}(i, n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the storm every node resolves every key.
	for k := 0; k < 3; k++ {
		vals, err := net_[nodes-1].Lookup(ctx, KeyFromFileID(uint64(k)))
		if err != nil {
			t.Fatalf("post-storm lookup key %d: %v", k, err)
		}
		if len(vals) == 0 {
			t.Fatalf("post-storm lookup key %d returned no values", k)
		}
	}
}
