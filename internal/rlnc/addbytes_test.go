package rlnc

// Differential coverage for the zero-copy ingest path: AddBytes must be
// observationally identical to UnmarshalBinary + Add for every message
// class (innovative, duplicate, redundant, corrupt, foreign, short),
// and must hold the same steady-state zero-allocation guarantee.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"asymshare/internal/gf"
)

// marshal serializes msg or fails the test.
func marshal(t testing.TB, msg *Message) []byte {
	t.Helper()
	buf, err := msg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestAddBytesMatchesAdd feeds the same scrambled stream — innovative,
// duplicate, corrupt and redundant messages — to one pipeline via Add
// and another via AddBytes, and requires identical accounting, identical
// per-message verdicts, and identical decoded output.
func TestAddBytesMatchesAdd(t *testing.T) {
	k := 12
	enc, digests, data := pipelineGen(t, gf.Bits8, k, 256, 41)
	rng := rand.New(rand.NewSource(99))
	msgs := scrambledStream(enc, rng, k)

	byMsg, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer byMsg.Close()
	byBytes, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer byBytes.Close()

	for i, msg := range msgs {
		okA, errA := byMsg.Add(msg.Clone())
		okB, errB := byBytes.AddBytes(marshal(t, msg))
		if okA != okB || (errA == nil) != (errB == nil) {
			t.Fatalf("message %d: Add = (%v, %v), AddBytes = (%v, %v)", i, okA, errA, okB, errB)
		}
	}
	if byMsg.Stats() != byBytes.Stats() {
		t.Fatalf("stats diverge: Add %+v, AddBytes %+v", byMsg.Stats(), byBytes.Stats())
	}
	outA, err := byMsg.Decode()
	if err != nil {
		t.Fatal(err)
	}
	outB, err := byBytes.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outA, outB) || !bytes.Equal(outA, data) {
		t.Fatal("decoded outputs diverge")
	}
}

// TestAddBytesRejects pins the early error classes: short buffers,
// foreign files, wrong payload lengths and forged payloads must fail
// with the same sentinel errors Add uses.
func TestAddBytesRejects(t *testing.T) {
	k := 8
	enc, digests, _ := pipelineGen(t, gf.Bits8, k, 128, 7)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	if _, err := pipe.AddBytes(make([]byte, MessageHeaderBytes-1)); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short buffer error = %v", err)
	}
	foreign := enc.Message(0).Clone()
	foreign.FileID++
	if _, err := pipe.AddBytes(marshal(t, foreign)); !errors.Is(err, ErrWrongFile) {
		t.Errorf("foreign file error = %v", err)
	}
	short := enc.Message(0).Clone()
	short.Payload = short.Payload[:8]
	if _, err := pipe.AddBytes(marshal(t, short)); !errors.Is(err, ErrBadParams) {
		t.Errorf("short payload error = %v", err)
	}
	unknown := enc.Message(uint64(9 * k))
	if _, err := pipe.AddBytes(marshal(t, unknown)); !errors.Is(err, ErrBadDigest) {
		t.Errorf("unknown message-id error = %v", err)
	}
	// The short buffer is a parse failure — the legacy path would die
	// in UnmarshalBinary before reaching the sink — so only the three
	// well-formed rejects are accounted.
	st := pipe.Stats()
	if st.Received != 3 || st.Rejected != 3 {
		t.Errorf("stats after rejects: %+v", st)
	}
	// A forged payload under a known id is refused by its digest, which
	// is computed when its group is: the call that fills the group gets
	// its own message's verdict back.
	for id := uint64(0); id < uint64(k-1); id++ {
		if ok, err := pipe.AddBytes(marshal(t, enc.Message(id))); ok || err != nil {
			t.Fatalf("parked message %d = (%v, %v), want no verdict yet", id, ok, err)
		}
	}
	forged := marshal(t, enc.Message(uint64(k)))
	forged[len(forged)-1] ^= 1
	if _, err := pipe.AddBytes(forged); !errors.Is(err, ErrBadDigest) {
		t.Errorf("forged payload error = %v", err)
	}
	if st := pipe.Stats(); st.Received != 3+k || st.Rejected != 4 || st.Accepted != k-1 || pipe.Rank() != k-1 {
		t.Errorf("stats after the forged group: %+v, rank %d", st, pipe.Rank())
	}
}

// TestAddBytesCallerOwnsBuffer verifies the documented contract that
// the input may be recycled immediately: the same backing buffer is
// reused (and clobbered) for every message, and the decode must still
// produce the original data.
func TestAddBytesCallerOwnsBuffer(t *testing.T) {
	k := 8
	enc, digests, data := pipelineGen(t, gf.Bits8, k, 128, 17)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	scratch := make([]byte, 0, MessageHeaderBytes+enc.Params().ChunkBytes())
	for id := uint64(0); !pipe.Done(); id++ {
		scratch = append(scratch[:0], marshal(t, enc.Message(id))...)
		if _, err := pipe.AddBytes(scratch); err != nil {
			t.Fatal(err)
		}
		// Clobber the buffer the way a frame reader recycling it would.
		for i := range scratch {
			scratch[i] = 0xAA
		}
	}
	out, err := pipe.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("decode diverged after input buffer reuse")
	}
}

// TestAddBytesSteadyStateAllocs is the receive-side half of the
// zero-copy proof: a warmed pipeline ingests serialized frames,
// decodes, and is retargeted at a different generation — other file-id,
// digest table, data and DataLen, as one chunk following another on the
// client's read path — without a single heap allocation.
func TestAddBytesSteadyStateAllocs(t *testing.T) {
	const k, m = 16, 512
	type generation struct {
		enc     *Encoder
		digests map[uint64]Digest
		frames  [][]byte
		out     []byte
	}
	gens := make([]generation, 2)
	for g := range gens {
		enc, digests, _ := retargetGen(t, gf.Bits8, k, m, g)
		gens[g] = generation{enc: enc, digests: digests, out: make([]byte, enc.Params().DataLen)}
		for id := uint64(0); id < uint64(2*k); id++ {
			gens[g].frames = append(gens[g].frames, marshal(t, enc.Message(id)))
		}
	}
	pipe, err := NewPipeline(gens[0].enc.Params(), gens[0].enc.FileID(), testSecret(), gens[0].digests,
		PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	cycle := func() {
		for g := range gens {
			gen := &gens[g]
			if err := pipe.Retarget(gen.enc.Params(), gen.enc.FileID(), gen.digests); err != nil {
				t.Fatal(err)
			}
			for _, frame := range gen.frames {
				if _, err := pipe.AddBytes(frame); err != nil {
					t.Fatal(err)
				}
			}
			if st := pipe.Stats(); st.Accepted != k {
				t.Fatalf("generation %d accepted %d messages, want %d", g, st.Accepted, k)
			}
			if err := pipe.DecodeInto(gen.out); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm up lazy hash state and map buckets
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("steady-state byte ingest allocates %v times per two retargeted generations, want 0", n)
	}
}
