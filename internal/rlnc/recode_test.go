package rlnc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"asymshare/internal/gf"
)

func TestPacketMarshalRoundTrip(t *testing.T) {
	for _, f := range testFields(t) {
		p := &CodedPacket{
			FileID:  0xAABBCCDD,
			Coeffs:  []uint32{1 & f.Mask(), 2 & f.Mask(), f.Mask(), 0},
			Payload: []byte{9, 8, 7, 6},
		}
		blob, err := p.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalPacket(f, 4, blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.FileID != p.FileID || !bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("GF(2^%d): round trip %+v", f.Bits(), got)
		}
		for i := range p.Coeffs {
			if got.Coeffs[i] != p.Coeffs[i] {
				t.Fatalf("GF(2^%d): coeff %d = %#x, want %#x", f.Bits(), i, got.Coeffs[i], p.Coeffs[i])
			}
		}
	}
}

func TestPacketUnmarshalErrors(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	if _, err := UnmarshalPacket(f, 4, make([]byte, 5)); !errors.Is(err, ErrBadParams) {
		t.Errorf("short packet error = %v", err)
	}
	p := &CodedPacket{FileID: 1, Coeffs: []uint32{1, 2}, Payload: []byte{1}}
	blob, err := p.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPacket(f, 3, blob); !errors.Is(err, ErrBadParams) {
		t.Errorf("k mismatch error = %v", err)
	}
	empty := &CodedPacket{FileID: 1}
	if _, err := empty.Marshal(f); !errors.Is(err, ErrBadParams) {
		t.Errorf("empty coeffs error = %v", err)
	}
}

func TestHeaderOverheadVsSecretMode(t *testing.T) {
	// The coefficient header costs k*p bits per packet; the paper's
	// secret-key mode sends only the 8-byte message-id. For the paper's
	// Table I corner (GF(2^4), m=2^13, k=256) the header is 128 bytes
	// per 4 KiB payload — ~3% overhead the secret mode avoids.
	f := gf.MustNew(gf.Bits4)
	p := &CodedPacket{FileID: 1, Coeffs: make([]uint32, 256)}
	if got := p.HeaderBytes(f); got != 8+128 {
		t.Errorf("HeaderBytes = %d, want 136", got)
	}
	f32 := gf.MustNew(gf.Bits32)
	p32 := &CodedPacket{FileID: 1, Coeffs: make([]uint32, 8)}
	if got := p32.HeaderBytes(f32); got != 8+32 {
		t.Errorf("HeaderBytes = %d, want 40", got)
	}
}

func TestRecodeChainRoundTrip(t *testing.T) {
	// Source -> relay (recoding) -> decoder: the relay emits fresh
	// combinations and the decoder still recovers the data, for every
	// field.
	rng := rand.New(rand.NewSource(51))
	for _, f := range testFields(t) {
		k := 6
		p := mustParams(t, f, k, 16, k*gf.VecBytes(f.Bits(), 16))
		data := randomData(rng, p.DataLen)
		enc, err := NewEncoder(p, 9, testSecret(), data)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := NewCoeffGenerator(f, k, testSecret())
		if err != nil {
			t.Fatal(err)
		}
		relay, err := NewRecoder(p, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The relay absorbs k+2 source packets.
		for id := uint64(0); id < uint64(k+2); id++ {
			if err := relay.Absorb(PacketFromMessage(gen, enc.Message(id))); err != nil {
				t.Fatal(err)
			}
		}
		if relay.Held() != k+2 {
			t.Fatalf("Held = %d", relay.Held())
		}
		dec, err := NewDecoder(p, 9, testSecret(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for tries := 0; !dec.Done(); tries++ {
			if tries > 6*k {
				t.Fatalf("GF(2^%d): decoder starved after %d recoded packets", f.Bits(), tries)
			}
			pkt, err := relay.Emit()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec.offer(nil, pkt.Coeffs, pkt.Payload); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("GF(2^%d): recode chain mismatch", f.Bits())
		}
	}
}

func TestRecoderValidation(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	p := mustParams(t, f, 4, 8, 32)
	r, err := NewRecoder(p, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Emit(); !errors.Is(err, ErrBadParams) {
		t.Errorf("empty Emit error = %v", err)
	}
	wrongFile := &CodedPacket{FileID: 6, Coeffs: make([]uint32, 4), Payload: make([]byte, 8)}
	if err := r.Absorb(wrongFile); !errors.Is(err, ErrWrongFile) {
		t.Errorf("wrong file error = %v", err)
	}
	badK := &CodedPacket{FileID: 5, Coeffs: make([]uint32, 3), Payload: make([]byte, 8)}
	if err := r.Absorb(badK); !errors.Is(err, ErrBadParams) {
		t.Errorf("bad k error = %v", err)
	}
	badPayload := &CodedPacket{FileID: 5, Coeffs: make([]uint32, 4), Payload: make([]byte, 7)}
	if err := r.Absorb(badPayload); !errors.Is(err, ErrBadParams) {
		t.Errorf("bad payload error = %v", err)
	}
}

func TestRecoderDoesNotAliasInputs(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	p := mustParams(t, f, 2, 8, 16)
	r, err := NewRecoder(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &CodedPacket{FileID: 1, Coeffs: []uint32{1, 0}, Payload: make([]byte, 8)}
	if err := r.Absorb(pkt); err != nil {
		t.Fatal(err)
	}
	pkt.Coeffs[0] = 99
	pkt.Payload[0] = 99
	out, err := r.Emit()
	if err != nil {
		t.Fatal(err)
	}
	// Emitted packet is c * (1,0 | zero payload): coeff[1] must be 0 and
	// payload must be all zero regardless of caller mutation.
	if out.Coeffs[1] != 0 || !gf.IsZeroSlice(out.Payload) {
		t.Error("recoder aliased caller-owned packet memory")
	}
}
