package rlnc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"asymshare/internal/gf"
)

func TestDeltaPatchEqualsReencode(t *testing.T) {
	// Patching old messages with delta messages must reproduce exactly
	// the messages a fresh encoder of the new content would mint.
	rng := rand.New(rand.NewSource(71))
	for _, f := range testFields(t) {
		k := 6
		p := mustParams(t, f, k, 16, k*gf.VecBytes(f.Bits(), 16))
		oldData := randomData(rng, p.DataLen)
		newData := bytes.Clone(oldData)
		// Modify a few scattered bytes.
		for _, off := range []int{0, 7, p.DataLen / 2, p.DataLen - 1} {
			newData[off] ^= 0x5A
		}
		oldEnc, err := NewEncoder(p, 3, testSecret(), oldData)
		if err != nil {
			t.Fatal(err)
		}
		newEnc, err := NewEncoder(p, 3, testSecret(), newData)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := NewDeltaEncoder(p, 3, testSecret(), oldData, newData)
		if err != nil {
			t.Fatal(err)
		}
		if gf.IsZeroSlice(delta.Delta(0).Payload) {
			t.Fatal("delta 0 is all-zero for modified data")
		}
		for id := uint64(0); id < uint64(2*k); id++ {
			stored := oldEnc.Message(id)
			if err := ApplyDelta(stored, delta.Delta(id)); err != nil {
				t.Fatal(err)
			}
			want := newEnc.Message(id)
			if !stored.Equal(want) {
				t.Fatalf("GF(2^%d): patched message %d != re-encoded", f.Bits(), id)
			}
		}
	}
}

func TestDeltaDecodeAfterPatch(t *testing.T) {
	// End-to-end: patch a stored batch, then decode the new version
	// from the patched messages.
	rng := rand.New(rand.NewSource(72))
	f := gf.MustNew(gf.Bits32)
	k := 8
	p := mustParams(t, f, k, 8, k*32)
	oldData := randomData(rng, p.DataLen)
	newData := randomData(rng, p.DataLen)

	oldEnc, err := NewEncoder(p, 4, testSecret(), oldData)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := oldEnc.BatchForPeer(0, k)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := NewDeltaEncoder(p, 4, testSecret(), oldData, newData)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range batch {
		if err := ApplyDelta(msg, delta.Delta(msg.MessageID)); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := NewDecoder(p, 4, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range batch {
		if _, err := dec.Add(msg); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("decode after patch != new version")
	}
}

func TestDeltaNoopDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := gf.MustNew(gf.Bits8)
	k := 4
	p := mustParams(t, f, k, 16, k*16)
	data := randomData(rng, p.DataLen)

	// Identical versions: every delta is all-zero, through Delta or
	// DeltaInto.
	same, err := NewDeltaEncoder(p, 5, testSecret(), data, data)
	if err != nil {
		t.Fatal(err)
	}
	if !gf.IsZeroSlice(same.Delta(0).Payload) || !gf.IsZeroSlice(same.Delta(99).Payload) {
		t.Error("non-zero delta for identical data")
	}
	batch := batchOf([]uint64{0, 1, 99}, p.ChunkBytes(), 0xEE) // dirty: must be overwritten
	for _, m := range batch {
		same.DeltaInto(m.MessageID, m.Payload)
		if !gf.IsZeroSlice(m.Payload) {
			t.Errorf("DeltaInto: non-zero delta for id %d of identical data", m.MessageID)
		}
	}

	// A change confined to chunk 0: messages still involve all chunks
	// (dense coefficients), so deltas are non-zero — but the delta
	// payload is exactly beta_0 * D_0, verified via linearity above.
	modified := bytes.Clone(data)
	modified[0] ^= 1
	diff, err := NewDeltaEncoder(p, 5, testSecret(), data, modified)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range batch {
		diff.DeltaInto(m.MessageID, m.Payload)
		if gf.IsZeroSlice(m.Payload) {
			t.Errorf("DeltaInto: all-zero delta for id %d of modified data", m.MessageID)
		}
	}
}

func TestApplyDeltaValidation(t *testing.T) {
	a := &Message{FileID: 1, MessageID: 2, Payload: []byte{1, 2}}
	wrongFile := &Message{FileID: 9, MessageID: 2, Payload: []byte{1, 2}}
	wrongID := &Message{FileID: 1, MessageID: 3, Payload: []byte{1, 2}}
	wrongLen := &Message{FileID: 1, MessageID: 2, Payload: []byte{1}}
	if err := ApplyDelta(a, wrongFile); !errors.Is(err, ErrBadParams) {
		t.Errorf("wrong file error = %v", err)
	}
	if err := ApplyDelta(a, wrongID); !errors.Is(err, ErrBadParams) {
		t.Errorf("wrong id error = %v", err)
	}
	if err := ApplyDelta(a, wrongLen); !errors.Is(err, ErrBadParams) {
		t.Errorf("wrong len error = %v", err)
	}
}

func TestNewDeltaEncoderValidation(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	p := mustParams(t, f, 4, 8, 32)
	if _, err := NewDeltaEncoder(p, 1, testSecret(), make([]byte, 32), make([]byte, 31)); !errors.Is(err, ErrBadParams) {
		t.Errorf("size mismatch error = %v", err)
	}
}
