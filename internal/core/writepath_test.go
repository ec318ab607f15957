package core_test

// The streaming write path against the sequential one it replaced, and
// its failure behaviour: first error wins, siblings are cancelled, the
// context is honoured, nothing is left running.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// startPeerOn is startPeer with the store kept in hand.
func startPeerOn(t *testing.T, b byte) (*peer.Node, *store.Memory) {
	t.Helper()
	st := store.NewMemory()
	n, err := peer.New(peer.Config{Identity: identity(t, b), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, st
}

// TestShareFileMatchesSequentialBatches is the write path's
// differential: for the secret and file-ids ShareFile drew, rebuild the
// share and mint every peer's batch the sequential way
// (chunk.Share.BatchForPeer, which cmd/bench's stepwise share still
// uses). The manifest digests and the bytes each peer stored must be
// the same, at a table field and at GF(2^32) with a short last chunk.
func TestShareFileMatchesSequentialBatches(t *testing.T) {
	plans := []chunk.Plan{
		smallPlan(),
		{FieldBits: gf.Bits32, M: 48, ChunkSize: 1536}, // k = 8, 192-byte payloads
	}
	for _, plan := range plans {
		rng := rand.New(rand.NewSource(int64(plan.FieldBits)))
		data := make([]byte, 5*plan.ChunkSize+plan.ChunkSize/3)
		rng.Read(data)
		sys, err := core.NewSystem(identity(t, 2), nil, core.WithPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		var addrs []string
		var stores []*store.Memory
		for i := byte(0); i < 3; i++ {
			n, st := startPeerOn(t, 20+i)
			addrs = append(addrs, n.Addr().String())
			stores = append(stores, st)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := sys.ShareFile(ctx, "diff.bin", data, addrs)
		if err != nil {
			t.Fatal(err)
		}

		m := &res.Handle.Manifest
		ref, err := chunk.BuildShare("diff.bin", data, plan, m.Chunks[0].FileID, res.Secret)
		if err != nil {
			t.Fatal(err)
		}
		wantMsgs, wantBytes := 0, int64(0)
		for p := range addrs {
			batches, err := ref.BatchForPeer(p, 1<<31-1)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range batches {
				for _, want := range batch {
					wantMsgs++
					wantBytes += int64(len(want.Payload) + rlnc.MessageHeaderBytes)
					got, err := stores[p].Get(want.FileID, want.MessageID)
					if err != nil {
						t.Fatalf("GF(2^%d) peer %d: %v", plan.FieldBits, p, err)
					}
					if !got.Equal(want) {
						t.Fatalf("GF(2^%d) peer %d stores different bytes for (%d,%d)",
							plan.FieldBits, p, want.FileID, want.MessageID)
					}
				}
			}
		}
		if res.MessagesSent != wantMsgs || res.BytesSent != wantBytes {
			t.Errorf("GF(2^%d): sent %d messages / %d bytes, sequential path sends %d / %d",
				plan.FieldBits, res.MessagesSent, res.BytesSent, wantMsgs, wantBytes)
		}
		for c := range m.Chunks {
			if m.Chunks[c].Sum == (rlnc.Digest{}) || m.Chunks[c].Sum != ref.Manifest.Chunks[c].Sum {
				t.Errorf("GF(2^%d) chunk %d: sum %v, BuildShare's is %v", plan.FieldBits, c, m.Chunks[c].Sum, ref.Manifest.Chunks[c].Sum)
			}
			got, want := m.Chunks[c].Digests, ref.Manifest.Chunks[c].Digests
			if len(got) != len(want) {
				t.Fatalf("GF(2^%d) chunk %d: %d digests, want %d", plan.FieldBits, c, len(got), len(want))
			}
			for id, d := range want {
				if got[id] != d {
					t.Fatalf("GF(2^%d) chunk %d id %#x: manifest digest differs", plan.FieldBits, c, id)
				}
			}
		}
		back, _, err := sys.FetchFile(ctx, &res.Handle, res.Secret)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("GF(2^%d): fetch back: %v, identical=%v", plan.FieldBits, err, bytes.Equal(back, data))
		}
	}
}

// fakePeer completes the handshake and then either acknowledges
// failAfter PUTs and hangs up mid-stream, or (stall) never reads or
// answers again. It reports how many PUTs it acknowledged.
func fakePeer(t *testing.T, b byte, failAfter int, stall bool) (addr string, puts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	id := identity(t, b)
	puts = new(atomic.Int64)
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		close(done)
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
				if _, _, err := wire.ResponderHandshake(fr, fw, id, nil); err != nil {
					return
				}
				if stall {
					<-done
					return
				}
				for i := 0; i < failAfter; i++ {
					put, err := fr.Expect(wire.TypePut)
					if err != nil {
						return
					}
					put.Release()
					puts.Add(1)
					if err := fw.WriteFrame(wire.TypePutOK, nil); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), puts
}

// settleGoroutines waits for the goroutine count to come back to the
// baseline (peer-side connection handlers wind down asynchronously once
// their connections close).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the call:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShareFileOnePeerOfFourFailsMidStream (run under -race via `make
// race-codec`): the third of four peers hangs up after a few PUTs. The
// call must return that failure promptly — not a sibling's
// cancellation, not a hang — and leave no goroutine behind.
func TestShareFileOnePeerOfFourFailsMidStream(t *testing.T) {
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 64, ChunkSize: 2048} // k = 8
	data := make([]byte, 40*plan.ChunkSize)
	rand.New(rand.NewSource(7)).Read(data)
	sys, err := core.NewSystem(identity(t, 3), nil, core.WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := byte(0); i < 4; i++ {
		if i == 2 {
			addr, puts := fakePeer(t, 33, 19, false)
			addrs = append(addrs, addr)
			defer func() {
				if n := puts.Load(); n != 19 {
					t.Errorf("failing peer acknowledged %d PUTs before hanging up, want 19", n)
				}
			}()
			continue
		}
		addrs = append(addrs, startPeer(t, 30+i).Addr().String())
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	res, err := sys.ShareFile(ctx, "doomed.bin", data, addrs)
	if err == nil {
		t.Fatalf("share succeeded with a peer that hung up: %+v", res)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("share reports %v, want the failing peer's error", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(addrs[2])) {
		t.Errorf("error does not name the failing peer %s: %v", addrs[2], err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("share took %v to fail", elapsed)
	}
	settleGoroutines(t, baseline)
}

// TestShareFileHonoursDeadlineAgainstStalledPeer: one peer of three
// accepts, shakes hands and then never reads. Before the fix the
// connection carried no deadline after the handshake and the PUT loop
// never looked at ctx, so this call hung forever.
func TestShareFileHonoursDeadlineAgainstStalledPeer(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 4), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	stalled, _ := fakePeer(t, 43, 0, true)
	addrs := []string{startPeer(t, 40).Addr().String(), stalled, startPeer(t, 41).Addr().String()}
	data := make([]byte, 20<<10)
	rand.New(rand.NewSource(8)).Read(data)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sys.ShareFile(ctx, "stuck.bin", data, addrs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("share against a stalled peer: %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("share took %v to notice a 400ms deadline", elapsed)
	}
	settleGoroutines(t, baseline+1) // the stalled peer's own handler stays parked until cleanup
}

// TestShareFileCancelledBeforeStart returns the context's error and
// uploads nothing.
func TestShareFileCancelledBeforeStart(t *testing.T) {
	sys, err := core.NewSystem(identity(t, 5), nil, core.WithPlan(smallPlan()))
	if err != nil {
		t.Fatal(err)
	}
	n, st := startPeerOn(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.ShareFile(ctx, "never.bin", make([]byte, 4096), []string{n.Addr().String()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("share on a cancelled context: %v", err)
	}
	if files := st.Files(); len(files) != 0 {
		t.Errorf("peer stored %d generations from a cancelled share", len(files))
	}
}
