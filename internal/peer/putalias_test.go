package peer_test

import (
	"bytes"
	"testing"

	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// TestPutSurvivesFrameBufferReuse: handlePut and handlePatch hand the
// store a message that aliases the connection's pooled frame buffer,
// which is released after each frame and picked up again by the next
// frame of the same size. Several equal-sized PUTs and a PATCH, written
// back to back on one connection before any acknowledgement is read,
// must each leave their own exact bytes in the store.
func TestPutSurvivesFrameBufferReuse(t *testing.T) {
	st := store.NewMemory()
	node := startPeer(t, peer.Config{Identity: identity(t, 250), Store: st})
	fr, fw := dialAuthed(t, node, identity(t, 251))

	const n = 6
	want := make([][]byte, n)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(0x10 + i)}, 8192)
		msg := rlnc.Message{FileID: 77, MessageID: uint64(i), Payload: want[i]}
		frame, err := msg.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteFrame(wire.TypePut, frame); err != nil {
			t.Fatal(err)
		}
	}
	delta := rlnc.Message{FileID: 77, MessageID: 0, Payload: bytes.Repeat([]byte{0xFF}, 8192)}
	frame, _ := delta.MarshalBinary()
	if err := fw.WriteFrame(wire.TypePatch, frame); err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		want[0][i] ^= 0xFF
	}
	// One more frame through the same buffer after the PATCH.
	last := rlnc.Message{FileID: 78, MessageID: 1, Payload: bytes.Repeat([]byte{0xEE}, 8192)}
	frame, _ = last.MarshalBinary()
	if err := fw.WriteFrame(wire.TypePut, frame); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+2; i++ {
		ack, err := fr.Expect(wire.TypePutOK)
		if err != nil {
			t.Fatalf("acknowledgement %d: %v", i, err)
		}
		ack.Release()
	}
	for i := range want {
		got, err := st.Get(77, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, want[i]) {
			t.Errorf("message %d: the store holds bytes of a later frame", i)
		}
	}
}
