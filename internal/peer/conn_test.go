package peer

// White-box tests for connection-level framing: every ERROR frame the
// dispatcher sends takes the connection's write lock, and a connection
// that never authenticates is hung up on.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"asymshare/internal/wire"
)

// recorder is a connection end that keeps everything written to it.
type recorder struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}

func (r *recorder) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

// TestConnErrorFramesTakeTheWriteLock: the ERROR frames dispatch sends
// for a malformed STOP, a malformed GET and an unexpected frame wait
// for the connection's write lock like every other write. A stream
// holds that lock across a DATA frame's header and payload, which are
// two writes on a transport without writev; an ERROR that skipped the
// lock could land between them.
func TestConnErrorFramesTakeTheWriteLock(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     wire.Type
		payload []byte
	}{
		{"malformed STOP", wire.TypeStop, []byte{1, 2, 3}},
		{"malformed GET", wire.TypeGet, []byte{1, 2, 3}},
		{"unexpected frame", wire.TypeChallenge, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec recorder
			cs, _ := handConn(t, admissionNode(t, Config{}), &rec)
			cs.cw.mu.Lock() // a stream mid-way through a DATA frame
			closed := make(chan bool, 1)
			go func() { closed <- cs.dispatch(tc.typ, tc.payload) }()
			select {
			case <-closed:
				t.Fatalf("dispatch answered while the write lock was held; wrote %x", rec.bytes())
			case <-time.After(100 * time.Millisecond):
			}
			cs.cw.mu.Unlock()
			if !<-closed {
				t.Fatal("the connection was kept open")
			}
			_, err := wire.NewFrameReader(bytes.NewReader(rec.bytes())).Expect(wire.TypeData)
			var remote *wire.RemoteError
			if !errors.As(err, &remote) || remote.Code != wire.CodeBadRequest {
				t.Fatalf("answer = %v, want ERROR(CodeBadRequest)", err)
			}
		})
	}
}

// TestSilentDialerIsDisconnected: a stranger that connects and never
// speaks is hung up on once handshakeTimeout passes, and the MaxConns
// slot it held serves a client that does authenticate.
func TestSilentDialerIsDisconnected(t *testing.T) {
	saved := handshakeTimeout
	t.Cleanup(func() { handshakeTimeout = saved }) // after the node's Close
	handshakeTimeout = 200 * time.Millisecond
	n := admissionNode(t, Config{MaxConns: 1})
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	_ = silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read on a silent connection = %v, want EOF: the peer never hung up", err)
	}

	// The slot is released just after the hang-up, so a dial can still
	// race it and be shed; retry until one authenticates.
	user := admissionIdentity(t, 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", n.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(time.Second))
		_, err = wire.InitiatorHandshake(wire.NewFrameReader(conn), wire.NewFrameWriter(conn), user, wire.RoleUser, nil)
		conn.Close()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no handshake succeeded after the silent dialer was dropped: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
