package client

// Regression (ISSUE 10 satellite): a PeerSession receiving STREAM_ERROR
// twice for the same stream, or for a stream id it never opened, must
// neither panic nor leak pooled wire.Bufs. White-box: the session is
// built directly over a net.Pipe so the test controls every frame.

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// pipeSession builds a PeerSession over an in-memory pipe, skipping
// dial and handshake, and starts its demux loop. The returned conn is
// the fake peer's end, with the writer it frames through.
func pipeSession(t *testing.T) (*PeerSession, net.Conn, *wire.FrameWriter) {
	t.Helper()
	cli, srv := net.Pipe()
	s := &PeerSession{
		c:           bareClient(),
		addr:        "pipe",
		conn:        cli,
		fingerprint: "pipe-peer",
		fr:          wire.NewFrameReader(cli),
		cw:          &sessionWriter{fw: wire.NewFrameWriter(cli)},
		streams:     make(map[uint64]*sessStream),
		closed:      make(chan struct{}),
	}
	go s.demux()
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv, wire.NewFrameWriter(srv)
}

// bareClient is a client with no identity: enough for a session built
// by hand, whose surplus verdicts need a health registry to land in.
func bareClient() *Client {
	c := &Client{opt: Options{}.withDefaults()}
	c.health = newHealthRegistry(&c.m, c.opt)
	return c
}

func writeStreamError(t *testing.T, fw *wire.FrameWriter, fileID uint64, code uint16) {
	t.Helper()
	se := wire.StreamError{FileID: fileID, Code: code, Reason: "test"}
	if err := fw.WriteFrame(wire.TypeStreamError, se.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func writeBusy(t *testing.T, fw *wire.FrameWriter, fileID uint64, reason string) {
	t.Helper()
	b := wire.Busy{FileID: fileID, Code: wire.CodeBusy, RetryAfterMillis: 250, Reason: reason}
	if err := fw.WriteFrame(wire.TypeBusy, b.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func TestSessionDuplicateStreamErrorNoPanicNoLeak(t *testing.T) {
	before := wire.DefaultPool.Live()

	s, srv, fw := pipeSession(t)
	const fileID = 7
	st := &sessStream{
		fileID: fileID,
		frames: make(chan *wire.Buf, sessStreamBuffer),
		done:   make(chan struct{}),
	}
	if err := s.register(st); err != nil {
		t.Fatal(err)
	}

	// A DATA frame queued on the stream before it fails: ownership sits
	// in st.frames until unregister drains it.
	payload := make([]byte, rlnc.MessageHeaderBytes)
	binary.BigEndian.PutUint64(payload, fileID)
	if err := fw.WriteFrame(wire.TypeData, payload); err != nil {
		t.Fatal(err)
	}

	// First STREAM_ERROR kills the stream; the duplicate, a BUSY for
	// the now-unknown id, errors for a never-opened id, and a stray
	// DATA frame for it must all be absorbed without panic or leak.
	writeStreamError(t, fw, fileID, wire.CodeUnknownFile)
	writeStreamError(t, fw, fileID, wire.CodeUnknownFile)
	writeBusy(t, fw, fileID, "late shed")
	writeStreamError(t, fw, 99, wire.CodeInternal)
	unknown := make([]byte, rlnc.MessageHeaderBytes)
	binary.BigEndian.PutUint64(unknown, 99)
	if err := fw.WriteFrame(wire.TypeData, unknown); err != nil {
		t.Fatal(err)
	}

	select {
	case <-st.done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream not failed by STREAM_ERROR")
	}
	var remote *wire.RemoteError
	if !errors.As(st.err, &remote) || remote.Code != wire.CodeUnknownFile {
		t.Fatalf("stream error = %v, want RemoteError(CodeUnknownFile)", st.err)
	}

	// The session must still be alive (stream-scoped frames only): a
	// fresh stream registers fine.
	st2 := &sessStream{fileID: 8, frames: make(chan *wire.Buf, 1), done: make(chan struct{})}
	if err := s.register(st2); err != nil {
		t.Fatalf("session dead after duplicate STREAM_ERROR: %v", err)
	}
	s.unregister(st2)

	// Tear down and drain: every pooled buffer must come home.
	srv.Close()
	select {
	case <-s.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("demux loop did not exit on peer close")
	}
	s.unregister(st)

	if live := wire.DefaultPool.Live(); live != before {
		t.Fatalf("pooled buffers leaked: live %d -> %d", before, live)
	}
}

// TestSessionBusyFailsOnlyItsStream pins the demux scoping of BUSY: the
// shed stream observes *wire.Busy with the peer's RETRY_AFTER hint and
// sibling streams keep running.
func TestSessionBusyFailsOnlyItsStream(t *testing.T) {
	s, _, fw := pipeSession(t)
	shed := &sessStream{fileID: 1, frames: make(chan *wire.Buf, 1), done: make(chan struct{})}
	kept := &sessStream{fileID: 2, frames: make(chan *wire.Buf, 1), done: make(chan struct{})}
	for _, st := range []*sessStream{shed, kept} {
		if err := s.register(st); err != nil {
			t.Fatal(err)
		}
	}
	writeBusy(t, fw, 1, "at stream capacity")
	select {
	case <-shed.done:
	case <-time.After(5 * time.Second):
		t.Fatal("BUSY did not fail its stream")
	}
	var busy *wire.Busy
	if !errors.As(shed.err, &busy) || busy.Code != wire.CodeBusy || busy.RetryAfterMillis != 250 {
		t.Fatalf("shed stream error = %v, want Busy with RetryAfterMillis 250", shed.err)
	}
	select {
	case <-kept.done:
		t.Fatalf("sibling stream failed by another stream's BUSY: %v", kept.err)
	default:
	}
	s.unregister(shed)
	s.unregister(kept)
}

// Regression (seen in PR 18, fixed in ISSUE 21): the demux loop looks a
// stream up, the stream's Fetch loop returns — unregister fails it and
// drains its queue — and only then does the demux loop's select run,
// with both arms ready: room in the queue and a closed done channel. If
// the send wins, the frame sits in a queue nobody will read again and
// its pooled buffer is never released. The first half forces exactly
// that order, iteration after iteration, so the send arm is taken about
// half the time; the second races the two sides for the detector.
func TestDeliverAfterDrainReleasesFrame(t *testing.T) {
	const iterations = 2000
	pool := wire.NewPool()
	s := &PeerSession{c: bareClient(), streams: make(map[uint64]*sessStream)}
	newStream := func() *sessStream {
		st := &sessStream{fileID: 7, frames: make(chan *wire.Buf, sessStreamBuffer), done: make(chan struct{})}
		if err := s.register(st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for i := 0; i < iterations; i++ {
		st := newStream()
		queued := pool.Get(64)
		st.deliver(queued) // delivered while live: unregister's drain releases it
		late := pool.Get(64)
		s.unregister(st)
		st.deliver(late) // both arms ready
	}
	if ps := pool.Stats(); ps.Live != 0 || ps.DoubleReleases != 0 {
		t.Fatalf("deliver after the drain: pool %+v, want nothing live, nothing released twice", ps)
	}
	for i := 0; i < iterations; i++ {
		st := newStream()
		delivered := make(chan struct{})
		go func() {
			defer close(delivered)
			for j := 0; j < 3; j++ {
				st.deliver(pool.Get(64))
			}
		}()
		s.unregister(st)
		<-delivered
	}
	if ps := pool.Stats(); ps.Live != 0 || ps.DoubleReleases != 0 {
		t.Fatalf("deliver racing unregister: pool %+v, want nothing live, nothing released twice", ps)
	}
}
