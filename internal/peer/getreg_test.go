package peer

// White-box tests for how a GET's stream is entered in, and leaves, its
// connection's table (conn.go:startStream): the entry exists before the
// serving goroutine does and is gone before the requester hears the
// stream is over, and a second GET for a generation still streaming is
// refused instead of taking over the entry STOP looks up.

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// handConn builds a connState over w the way handleConn does, without a
// socket or a handshake.
func handConn(t *testing.T, n *Node, w io.Writer) (*connState, *sync.WaitGroup) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	wg := new(sync.WaitGroup)
	return &connState{
		n:      n,
		cw:     newConnWriter(w),
		client: "requester",
		ctx:    ctx,
		wg:     wg,
		active: make(map[uint64]*stream),
	}, wg
}

// storeWith holds files generations, ids 1 to files, of messages
// messages each.
func storeWith(t *testing.T, files, messages, payload int) *store.Memory {
	t.Helper()
	st := store.NewMemory()
	for fileID := 1; fileID <= files; fileID++ {
		for id := 0; id < messages; id++ {
			if err := st.Put(&rlnc.Message{FileID: uint64(fileID), MessageID: uint64(id), Payload: make([]byte, payload)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestInstantStreamsLeaveNoEntry: a two-message share on an unshaped
// peer is over before handleGet returns, routinely. Its clean-up must
// still find its entry: registered after the fact, the entry outlived
// the stream for the life of the connection.
func TestInstantStreamsLeaveNoEntry(t *testing.T) {
	const streams = 1000
	n := admissionNode(t, Config{Store: storeWith(t, streams, 2, 64)})
	cs, wg := handConn(t, n, io.Discard)
	for fileID := uint64(1); fileID <= streams; fileID++ {
		get := wire.Get{FileID: fileID, Limit: 2}
		if cs.handleGet(get.Marshal()) {
			t.Fatal("handleGet closed the connection")
		}
	}
	wg.Wait()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.active) != 0 {
		t.Fatalf("%d dead entries in the connection's stream table after %d finished streams", len(cs.active), streams)
	}
}

// TestDuplicateGetLeavesFirstStreamStoppable: the second GET_MUX for a
// generation that is still streaming is answered with a stream-scoped
// STREAM_ERROR, and STOP still cancels the first.
func TestDuplicateGetLeavesFirstStreamStoppable(t *testing.T) {
	const fileID = 1
	// 2 MiB at 64 KiB/s: the first stream outlives the test.
	n := admissionNode(t, Config{Store: storeWith(t, 1, 64, 32<<10), UploadBytesPerSec: 64 << 10})
	peerEnd, userEnd := net.Pipe()
	t.Cleanup(func() { peerEnd.Close(); userEnd.Close() })
	cs, wg := handConn(t, n, peerEnd)

	// The requester's end: DATA frames are read and dropped, the
	// refusal is handed over.
	refusals := make(chan wire.StreamError, 1)
	go func() {
		fr := wire.NewFrameReader(userEnd)
		for {
			typ, b, err := fr.Next()
			if err != nil {
				return
			}
			if typ == wire.TypeStreamError {
				var se wire.StreamError
				if se.Unmarshal(b.Bytes()) == nil {
					refusals <- se
				}
			}
			b.Release()
		}
	}()

	get := wire.Get{FileID: fileID}
	if cs.handleGet(get.Marshal()) {
		t.Fatal("first GET closed the connection")
	}
	cs.mu.Lock()
	first := cs.active[fileID]
	cs.mu.Unlock()
	if first == nil {
		t.Fatal("stream not registered by the time handleGet returned")
	}
	stopped := make(chan struct{})
	cancelFirst := first.cancel
	first.cancel = func() { close(stopped); cancelFirst() }

	if cs.handleGet(get.Marshal()) {
		t.Fatal("duplicate GET closed the connection")
	}
	select {
	case se := <-refusals:
		if se.FileID != fileID || se.Code != wire.CodeBadRequest {
			t.Fatalf("refusal %+v, want CodeBadRequest for file %d", se, fileID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("duplicate GET_MUX was not refused")
	}
	cs.mu.Lock()
	still := cs.active[fileID]
	cs.mu.Unlock()
	if still != first {
		t.Fatal("the duplicate took over the first stream's entry")
	}

	stop := wire.Stop{FileID: fileID}
	if cs.dispatch(wire.TypeStop, stop.Marshal()) {
		t.Fatal("STOP closed the connection")
	}
	select {
	case <-stopped:
	default:
		t.Fatal("STOP did not cancel the first stream")
	}
	wg.Wait()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.active) != 0 {
		t.Fatalf("%d entries left after STOP", len(cs.active))
	}
}
