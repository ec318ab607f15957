package rlnc

// Property-based invariants of the incremental decoder.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"asymshare/internal/gf"
)

// TestDecoderRankMonotoneAndBounded: rank never decreases, never
// exceeds k, and equals the number of accepted (innovative) messages.
func TestDecoderRankMonotoneAndBounded(t *testing.T) {
	f := gf.MustNew(gf.Bits4) // small field maximizes dependent rows
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(6)
		p, err := NewParams(f, k, 16, k*gf.VecBytes(f.Bits(), 16))
		if err != nil {
			return false
		}
		data := randomData(rng, p.DataLen)
		enc, err := NewEncoder(p, 1, testSecret(), data)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(p, 1, testSecret(), nil)
		if err != nil {
			return false
		}
		prevRank := 0
		for id := uint64(0); id < uint64(6*k); id++ {
			innovative, err := dec.Add(enc.Message(id))
			if err != nil {
				return false
			}
			rank := dec.Rank()
			if rank < prevRank || rank > k {
				return false
			}
			if innovative && rank != prevRank+1 {
				return false
			}
			if !innovative && rank != prevRank {
				return false
			}
			prevRank = rank
			if st := dec.Stats(); st.Accepted != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDecodeIsIdempotent: calling Decode twice yields the same bytes.
func TestDecodeIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := gf.MustNew(gf.Bits8)
	k := 7
	p := mustParams(t, f, k, 16, k*16)
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 1, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p, 1, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); !dec.Done(); id++ {
		if _, err := dec.Add(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	second, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Decode not idempotent")
	}
	if !bytes.Equal(first, data) {
		t.Fatal("Decode wrong")
	}
}

// TestMessagesAfterDoneAreIgnored: extra messages after rank k change
// nothing.
func TestMessagesAfterDoneAreIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	f := gf.MustNew(gf.Bits32)
	k := 5
	p := mustParams(t, f, k, 8, k*32)
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 1, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p, 1, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	for ; !dec.Done(); id++ {
		if _, err := dec.Add(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	for extra := uint64(0); extra < 5; extra++ {
		innovative, err := dec.Add(enc.Message(id + extra))
		if err != nil {
			t.Fatal(err)
		}
		if innovative {
			t.Fatal("message counted innovative after rank k")
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode wrong after extra messages")
	}
}

// TestEncoderLinearity: Y(id) payloads are linear — the message of the
// sum of two files equals the XOR of the messages (same id, same
// secret), since coefficients depend only on (fileID, id).
func TestEncoderLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, bits := range []uint{gf.Bits8, gf.Bits32} {
		f := gf.MustNew(bits)
		k := 4
		p := mustParams(t, f, k, 19, k*gf.VecBytes(bits, 19))
		a := randomData(rng, p.DataLen)
		b := randomData(rng, p.DataLen)
		sum := make([]byte, len(a))
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		encA, err := NewEncoder(p, 9, testSecret(), a)
		if err != nil {
			t.Fatal(err)
		}
		encB, err := NewEncoder(p, 9, testSecret(), b)
		if err != nil {
			t.Fatal(err)
		}
		encSum, err := NewEncoder(p, 9, testSecret(), sum)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 8; id++ {
			ya := encA.Message(id).Payload
			yb := encB.Message(id).Payload
			ys := encSum.Message(id).Payload
			for i := range ys {
				if ys[i] != ya[i]^yb[i] {
					t.Fatalf("GF(2^%d): linearity violated at message %d byte %d", bits, id, i)
				}
			}
		}
	}
}

// TestEncoderMatchesRowTimesChunks is Eq. (1) checked symbol by symbol
// with Field.Mul, independent of every region kernel: Y_i[s] = sum_j
// beta_ij * X_j[s].
func TestEncoderMatchesRowTimesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, bits := range []uint{gf.Bits4, gf.Bits8, gf.Bits16, gf.Bits32} {
		f := gf.MustNew(bits)
		k, m := 5, 38 // GF(2^32): 152-byte payloads, two vector steps and a tail
		p := mustParams(t, f, k, m, k*gf.VecBytes(bits, m)-3)
		data := randomData(rng, p.DataLen)
		enc, err := NewEncoder(p, 11, testSecret(), data)
		if err != nil {
			t.Fatal(err)
		}
		padded := make([]byte, p.CapacityBytes())
		copy(padded, data)
		cb := p.ChunkBytes()
		for id := uint64(0); id < 6; id++ {
			row := enc.gen.Row(11, id)
			got := enc.Message(id).Payload
			for s := 0; s < m; s++ {
				var want uint32
				for j := 0; j < k; j++ {
					want ^= f.Mul(row[j], gf.GetSym(bits, padded[j*cb:(j+1)*cb], s))
				}
				if sym := gf.GetSym(bits, got, s); sym != want {
					t.Fatalf("GF(2^%d) id %d symbol %d: %#x, want %#x", bits, id, s, sym, want)
				}
			}
		}
	}
}

// TestEncoderConcurrentMinting mints the same ids from several
// goroutines at once (run under -race via `make race-codec`): the
// per-caller scratch must keep them independent.
func TestEncoderConcurrentMinting(t *testing.T) {
	f := gf.MustNew(gf.Bits32)
	p := mustParams(t, f, 8, 64, 8*256)
	enc, err := NewEncoder(p, 5, testSecret(), randomData(rand.New(rand.NewSource(65)), p.DataLen))
	if err != nil {
		t.Fatal(err)
	}
	const ids = 32
	want := make([]Digest, ids)
	for id := range want {
		want[id] = enc.Message(uint64(id)).Digest()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Message{FileID: 5, Payload: make([]byte, p.ChunkBytes())}
			for id := 0; id < ids; id++ {
				m.MessageID = uint64(id)
				enc.MessageInto(m.MessageID, m.Payload)
				if m.Digest() != want[id] {
					t.Errorf("id %d: concurrent mint differs", id)
				}
				if _, err := enc.BatchIDs(id%3, 8); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMessageUnmarshal drives ViewMessage, the parser every PUT and
// PATCH payload goes through: it never panics, and what it accepts
// marshals back to the same bytes.
func FuzzMessageUnmarshal(f *testing.F) {
	msg := Message{FileID: 1, MessageID: 2, Payload: []byte{1, 2, 3}}
	seed, err := msg.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ViewMessage(data)
		if err != nil {
			return
		}
		// A successful parse must round-trip.
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch: %x vs %x", out, data)
		}
	})
}
