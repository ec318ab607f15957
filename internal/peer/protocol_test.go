package peer_test

// Protocol-robustness tests: a peer confronted with malformed or
// out-of-order frames must fail the offending connection cleanly and
// keep serving others.

import (
	"net"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// handshake authenticates user over conn, through the connection's one
// reader and writer.
func handshake(conn net.Conn, user *auth.Identity) (*wire.FrameReader, *wire.FrameWriter, error) {
	fr, fw := wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	_, err := wire.InitiatorHandshake(fr, fw, user, wire.RoleUser, nil)
	return fr, fw, err
}

// dialAuthed opens an authenticated user connection to the node and
// returns its reader and writer.
func dialAuthed(t *testing.T, node *peer.Node, user *auth.Identity) (*wire.FrameReader, *wire.FrameWriter) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fr, fw, err := handshake(conn, user)
	if err != nil {
		t.Fatal(err)
	}
	return fr, fw
}

// nextType reads one frame and returns its type, releasing the payload.
func nextType(fr *wire.FrameReader) (wire.Type, error) {
	t, b, err := fr.Next()
	if err != nil {
		return 0, err
	}
	b.Release()
	return t, nil
}

func TestPeerRejectsGarbageBeforeHandshake(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 200), Store: store.NewMemory()})
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// A DATA frame where a HELLO is expected.
	if err := wire.NewFrameWriter(conn).WriteFrame(wire.TypeData, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	// The peer must answer with an error or just close; either way the
	// connection dies without a successful handshake.
	if ty, err := nextType(wire.NewFrameReader(conn)); err == nil && ty != wire.TypeError {
		t.Errorf("peer answered %s to garbage, want error/close", ty)
	}
	// The node still serves a well-behaved client afterwards.
	user := identity(t, 201)
	_, good := dialAuthed(t, node, user)
	if err := good.WriteFrame(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeerRejectsMalformedGet(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 202), Store: store.NewMemory()})
	fr, fw := dialAuthed(t, node, identity(t, 203))
	if err := fw.WriteFrame(wire.TypeGetMux, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if ty, err := nextType(fr); err == nil && ty != wire.TypeError {
		t.Errorf("malformed GET_MUX answered with %s", ty)
	}
}

func TestPeerRejectsMalformedPut(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 204), Store: store.NewMemory()})
	fr, fw := dialAuthed(t, node, identity(t, 205))
	// A PUT shorter than a message header kills the connection.
	if err := fw.WriteFrame(wire.TypePut, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if ack, err := fr.Expect(wire.TypePutOK); err == nil {
		ack.Release()
		t.Error("malformed PUT acknowledged")
	}
}

func TestPeerRejectsUnexpectedFrameType(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 206), Store: store.NewMemory()})
	fr, fw := dialAuthed(t, node, identity(t, 207))
	if err := fw.WriteFrame(wire.TypeChallenge, nil); err != nil {
		t.Fatal(err)
	}
	if ty, err := nextType(fr); err == nil && ty != wire.TypeError {
		t.Errorf("unexpected frame answered with %s", ty)
	}
}

func TestPeerStopForUnknownStreamIsHarmless(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 208), Store: store.NewMemory()})
	fr, fw := dialAuthed(t, node, identity(t, 209))
	stop := wire.Stop{FileID: 424242}
	if err := fw.WriteFrame(wire.TypeStop, stop.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The connection stays usable: a PUT still round-trips.
	msg := rlnc.Message{FileID: 1, MessageID: 1, Payload: []byte{1}}
	buf, err := msg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(wire.TypePut, buf); err != nil {
		t.Fatal(err)
	}
	ack, err := fr.Expect(wire.TypePutOK)
	if err != nil {
		t.Fatalf("PUT after stray STOP failed: %v", err)
	}
	ack.Release()
}

func TestMaxConnsSheds(t *testing.T) {
	node := startPeer(t, peer.Config{
		Identity: identity(t, 210),
		Store:    store.NewMemory(),
		MaxConns: 1,
	})
	user := identity(t, 211)
	// First connection occupies the only slot.
	_, first := dialAuthed(t, node, user)

	// Second connection is shed: the handshake cannot complete.
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := handshake(conn, user); err == nil {
		t.Error("second connection handshake succeeded despite MaxConns=1")
	}

	// Releasing the first slot lets new connections through.
	if err := first.WriteFrame(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c2, err := net.DialTimeout("tcp", node.Addr().String(), time.Second)
		if err != nil {
			continue
		}
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		_, _, err = handshake(c2, user)
		c2.Close()
		if err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Error("slot was never released after BYE")
}

func TestPeerFrameSizeLimitEnforced(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 212), Store: store.NewMemory()})
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Forge a frame header announcing an absurd size; the peer must
	// drop the connection rather than allocate.
	hdr := []byte{byte(wire.TypeHello), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	// Any response must be an error frame or a close, never a CHALLENGE.
	if n >= 1 && wire.Type(buf[0]) == wire.TypeChallenge {
		t.Error("peer proceeded with handshake after oversize frame header")
	}
}
