package rlnc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"asymshare/internal/gf"
)

// pipelineGen builds an encoder plus the owner-published digest map for
// a deterministic generation.
func pipelineGen(t testing.TB, bits uint, k, pieceLen int, seed int64) (*Encoder, map[uint64]Digest, []byte) {
	t.Helper()
	f := gf.MustNew(bits)
	p, err := NewParams(f, k, pieceLen, k*pieceLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 7, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]Digest)
	for id := uint64(0); id < uint64(4*k+4); id++ {
		digests[id] = enc.Message(id).Digest()
	}
	return enc, digests, data
}

// scrambledStream builds a deterministic message stream containing
// innovative, duplicate, corrupt, and (past rank k) redundant messages.
// The corrupt payloads travel under ids of their own (on record, sent
// nowhere else in the stream): which bucket a forged repeat of an id
// lands in depends on whether the first copy has been verified yet
// (TestStagedForgedRepeat), so the two front ends are only comparable
// bucket for bucket without them.
func scrambledStream(enc *Encoder, rng *rand.Rand, k int) []*Message {
	var msgs []*Message
	for id := uint64(0); id < uint64(2*k); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	// Duplicates of a few early messages.
	for id := uint64(0); id < uint64(min(4, 2*k)); id++ {
		msgs = append(msgs, enc.Message(id).Clone())
	}
	// Corrupted payloads, one twice, and a forged message-id.
	for i := 0; i < 3; i++ {
		bad := enc.Message(uint64(2*k + i))
		bad.Payload[rng.Intn(len(bad.Payload))] ^= 0x5a
		msgs = append(msgs, bad)
	}
	msgs = append(msgs, msgs[len(msgs)-1].Clone())
	unknown := enc.Message(uint64(5*k + 5))
	msgs = append(msgs, unknown)
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	return msgs
}

// TestRowStreamMatchesRow pins the reusable RowStream to the one-shot
// derivation: the pipeline's coefficient replay depends on them being
// byte-for-byte the same stream.
func TestRowStreamMatchesRow(t *testing.T) {
	for _, bits := range []uint{gf.Bits4, gf.Bits8, gf.Bits16, gf.Bits32} {
		f := gf.MustNew(bits)
		for _, k := range []int{1, 7, 64, 200} {
			g, err := NewCoeffGenerator(f, k, testSecret())
			if err != nil {
				t.Fatal(err)
			}
			s := g.Stream()
			row := make([]uint32, k)
			for id := uint64(0); id < 20; id++ {
				s.RowInto(9, id, row)
				want := g.Row(9, id)
				for i := range row {
					if row[i] != want[i] {
						t.Fatalf("GF(2^%d) k=%d id=%d: stream row diverges at %d: %d != %d",
							bits, k, id, i, row[i], want[i])
					}
				}
			}
		}
	}
}

// TestPipelineMatchesSequentialDecoder is the differential test from
// the acceptance criteria: the same stream of innovative, duplicate,
// corrupt and redundant messages, in random arrival orders, must yield
// byte-identical output and identical accounting from the staged
// pipeline and the sequential decoder — at generation sizes on both
// sides of a lane pass (one group, a remainder, several groups) and fed
// through Add and AddBytes alike. The pipeline defers a parked message's
// verdict, so per call it may only say less than the decoder, never
// more.
func TestPipelineMatchesSequentialDecoder(t *testing.T) {
	for _, bits := range []uint{gf.Bits8, gf.Bits16, gf.Bits32} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("p%d_w%d", bits, workers), func(t *testing.T) {
				for _, k := range []int{1, 3, 8, 9, 24, 32} {
					for order := int64(0); order < 4; order++ {
						pipelineVersusDecoder(t, bits, workers, k, order)
					}
				}
			})
		}
	}
}

func pipelineVersusDecoder(t *testing.T, bits uint, workers, k int, order int64) {
	t.Helper()
	what := fmt.Sprintf("k=%d order %d", k, order)
	enc, digests, data := pipelineGen(t, bits, k, 96, int64(bits)*100+int64(workers))
	msgs := scrambledStream(enc, rand.New(rand.NewSource(42+order)), k)
	if order == 3 {
		// Unauthenticated: nothing is parked, the forgeries are decoded
		// like any other row, and the two outputs still agree.
		digests, data = nil, nil
	}

	dec, err := NewDecoder(enc.Params(), enc.FileID(), testSecret(), digests)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: workers, SegmentBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	for i, msg := range msgs {
		wantInnov, wantErr := dec.Add(msg.Clone())
		var gotInnov bool
		var gotErr error
		if i%2 == 0 {
			gotInnov, gotErr = pipe.Add(msg)
		} else {
			gotInnov, gotErr = pipe.AddBytes(marshal(t, msg))
		}
		if gotInnov && !wantInnov || gotErr != nil && wantErr == nil {
			t.Fatalf("%s: msg %d (id %d): pipeline (%v, %v), decoder (%v, %v)",
				what, i, msg.MessageID, gotInnov, gotErr, wantInnov, wantErr)
		}
		if pipe.Rank() > dec.Rank() {
			t.Fatalf("%s: msg %d: pipeline rank %d ahead of decoder's %d", what, i, pipe.Rank(), dec.Rank())
		}
	}
	if ds, ps := dec.Stats(), pipe.Stats(); ds != ps {
		t.Fatalf("%s: stats diverge: pipeline %+v, decoder %+v", what, ps, ds)
	}
	want, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: pipeline output differs from sequential decoder", what)
	}
	if data != nil && !bytes.Equal(got, data) {
		t.Fatalf("%s: pipeline output differs from original data", what)
	}
	// Decode is idempotent.
	again, err := pipe.Decode()
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("%s: second Decode = %v (equal=%v)", what, err, bytes.Equal(again, want))
	}
}

// TestPipelineConcurrentProducers races N producers feeding interleaved
// innovative, redundant, duplicate and corrupt messages and checks the
// Stats invariants hold: every message lands in exactly one bucket and
// Accepted reaches exactly k. Run under -race via `make race-codec`.
func TestPipelineConcurrentProducers(t *testing.T) {
	const producers = 8
	k := 32
	enc, digests, data := pipelineGen(t, gf.Bits8, k, 256, 77)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 2, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	var wg sync.WaitGroup
	sent := 0
	for pr := 0; pr < producers; pr++ {
		rng := rand.New(rand.NewSource(int64(1000 + pr)))
		msgs := scrambledStream(enc, rng, k)
		sent += len(msgs)
		wg.Add(1)
		go func(msgs []*Message) {
			defer wg.Done()
			for _, msg := range msgs {
				if _, err := pipe.Add(msg); err != nil {
					// Bad digests and wrong ids are part of the stream;
					// only unexpected errors matter.
					continue
				}
			}
		}(msgs)
	}
	wg.Wait()

	st := pipe.Stats()
	if st.Received != sent {
		t.Errorf("received %d, sent %d", st.Received, sent)
	}
	if got := st.Accepted + st.Rejected + st.Duplicate + st.Redundant; got != st.Received {
		t.Errorf("buckets sum to %d, received %d (%+v)", got, st.Received, st)
	}
	if st.Accepted != k {
		t.Errorf("accepted %d, want exactly %d", st.Accepted, k)
	}
	if !pipe.Done() || pipe.Rank() != k {
		t.Fatalf("rank %d, done %v", pipe.Rank(), pipe.Done())
	}
	got, err := pipe.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("concurrent decode mismatch")
	}
	tel := pipe.Telemetry()
	if tel.Jobs == 0 || tel.EliminatedBytes == 0 {
		t.Errorf("telemetry not recording: %+v", tel)
	}
}

// retargetGen is generation g of a retarget sequence: its own file-id,
// data and digests, and — the one geometry freedom Retarget allows — a
// DataLen that shrinks within the last chunk-vector on odd g.
func retargetGen(t testing.TB, bits uint, k, m, g int) (*Encoder, map[uint64]Digest, []byte) {
	t.Helper()
	p, err := NewParams(gf.MustNew(bits), k, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.DataLen = p.CapacityBytes()
	if g%2 == 1 {
		p.DataLen -= 1 + g%p.ChunkBytes()
	}
	data := randomData(rand.New(rand.NewSource(int64(1000+g))), p.DataLen)
	enc, err := NewEncoder(p, uint64(100+g), testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]Digest)
	for id := uint64(0); id < uint64(3*k); id++ {
		digests[id] = enc.Message(id).Digest()
	}
	return enc, digests, data
}

// TestPipelineRetarget decodes 32 different generations through one
// engine — buffers and workers recycled, file-id, digests
// and DataLen replaced — and requires every output byte-identical to a
// fresh sequential Decoder fed the same scrambled stream.
func TestPipelineRetarget(t *testing.T) {
	const k, m = 12, 96
	enc0, dig0, _ := retargetGen(t, gf.Bits8, k, m, 0)
	pipe, err := NewPipeline(enc0.Params(), enc0.FileID(), testSecret(), dig0, PipelineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for g := 0; g < 32; g++ {
		enc, digests, data := retargetGen(t, gf.Bits8, k, m, g)
		if g > 0 {
			if err := pipe.Retarget(enc.Params(), enc.FileID(), digests); err != nil {
				t.Fatalf("generation %d: %v", g, err)
			}
			if pipe.Rank() != 0 || pipe.Done() {
				t.Fatalf("generation %d: retarget did not clear rank", g)
			}
			if st := pipe.Stats(); st != (Stats{}) {
				t.Fatalf("generation %d: retarget did not clear stats: %+v", g, st)
			}
			if tel := pipe.Telemetry(); tel.Jobs != 0 || tel.EliminatedBytes != 0 {
				t.Fatalf("generation %d: retarget did not clear telemetry: %+v", g, tel)
			}
		}
		dec, err := NewDecoder(enc.Params(), enc.FileID(), testSecret(), digests)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range scrambledStream(enc, rand.New(rand.NewSource(int64(g))), k) {
			okP, errP := pipe.Add(msg.Clone())
			okD, errD := dec.Add(msg.Clone())
			if okP && !okD || errP != nil && errD == nil {
				t.Fatalf("generation %d: pipeline (%v, %v), decoder (%v, %v)", g, okP, errP, okD, errD)
			}
		}
		if pipe.Stats() != dec.Stats() {
			t.Fatalf("generation %d: stats diverge: pipeline %+v, decoder %+v", g, pipe.Stats(), dec.Stats())
		}
		want, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipe.Decode()
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, data) {
			t.Fatalf("generation %d: retargeted decode differs from a fresh decoder", g)
		}
	}
}

// TestRetargetRejectsStaleFrames: a frame still in flight for the
// generation the engine was aimed at before is a foreign message now —
// ErrWrongFile, counted Rejected, and it never touches the new rank.
func TestRetargetRejectsStaleFrames(t *testing.T) {
	const k, m = 8, 64
	prev, digPrev, _ := retargetGen(t, gf.Bits8, k, m, 0)
	next, digNext, data := retargetGen(t, gf.Bits8, k, m, 2)
	pipe, err := NewPipeline(prev.Params(), prev.FileID(), testSecret(), digPrev, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	if _, err := pipe.AddBytes(marshal(t, prev.Message(0))); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Retarget(next.Params(), next.FileID(), digNext); err != nil {
		t.Fatal(err)
	}
	if ok, err := pipe.AddBytes(marshal(t, prev.Message(1))); ok || !errors.Is(err, ErrWrongFile) {
		t.Fatalf("stale AddBytes = (%v, %v), want ErrWrongFile", ok, err)
	}
	if ok, err := pipe.Add(prev.Message(2)); ok || !errors.Is(err, ErrWrongFile) {
		t.Fatalf("stale Add = (%v, %v), want ErrWrongFile", ok, err)
	}
	if st := pipe.Stats(); st.Received != 2 || st.Rejected != 2 || pipe.Rank() != 0 {
		t.Fatalf("after stale frames: stats %+v rank %d, want 2 received, 2 rejected, rank 0", st, pipe.Rank())
	}
	for id := uint64(0); !pipe.Done(); id++ {
		if _, err := pipe.AddBytes(marshal(t, next.Message(id))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pipe.Decode()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode after stale frames: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestRetargetRefusesOtherGeometry: the arena, rows and coefficient
// generator are sized by field, K and chunk-vector bytes; anything else
// is refused and the engine keeps decoding what it was aimed at.
func TestRetargetRefusesOtherGeometry(t *testing.T) {
	const k, m = 8, 64
	enc, digests, data := retargetGen(t, gf.Bits8, k, m, 0)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 3; id++ {
		if _, err := pipe.Add(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	for name, other := range map[string]Params{
		"k":           {Field: gf.MustNew(gf.Bits8), K: k - 1, M: m, DataLen: 10},
		"chunk bytes": {Field: gf.MustNew(gf.Bits8), K: k, M: 2 * m, DataLen: 10},
		"field":       {Field: gf.MustNew(gf.Bits16), K: k, M: m / 2, DataLen: 10}, // same chunk bytes
		"invalid":     {Field: gf.MustNew(gf.Bits8), K: k, M: m, DataLen: k*m + 1},
	} {
		if err := pipe.Retarget(other, 99, nil); !errors.Is(err, ErrBadParams) && !errors.Is(err, ErrDataTooLarge) {
			t.Errorf("retarget to other %s = %v, want a parameter error", name, err)
		}
	}
	// The three messages are still parked; the refusals must not have
	// dropped them.
	if pipe.Settle(); pipe.Rank() != 3 {
		t.Fatalf("refused retargets disturbed the engine: rank %d, want 3", pipe.Rank())
	}
	for id := uint64(3); !pipe.Done(); id++ {
		if _, err := pipe.Add(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := pipe.Decode(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode after refused retargets: err %v", err)
	}
	pipe.Close()
	if err := pipe.Retarget(enc.Params(), enc.FileID(), digests); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("retarget after Close = %v, want ErrPipelineClosed", err)
	}
}

// TestPipelineErrors pins the error surface: wrong file, bad payload
// length, forged digests, decode before rank k, use after Close.
func TestPipelineErrors(t *testing.T) {
	k := 8
	enc, digests, _ := pipelineGen(t, gf.Bits8, k, 32, 9)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := pipe.Decode(); err == nil {
		t.Error("early Decode succeeded")
	}
	wrong := enc.Message(0).Clone()
	wrong.FileID++
	if _, err := pipe.Add(wrong); err == nil {
		t.Error("wrong-file message accepted")
	}
	short := enc.Message(0).Clone()
	short.Payload = short.Payload[:4]
	if _, err := pipe.Add(short); err == nil {
		t.Error("short payload accepted")
	}
	// A forged payload under a known id passes the cheap checks and is
	// parked; its digest refuses it when the group is verified.
	forged := enc.Message(1).Clone()
	forged.Payload[0] ^= 1
	if ok, _ := pipe.Add(forged); ok {
		t.Error("forged payload reported innovative")
	}
	pipe.Settle()
	st := pipe.Stats()
	if st.Received != 3 || st.Rejected != 3 || pipe.Rank() != 0 {
		t.Errorf("stats after rejects: %+v, rank %d", st, pipe.Rank())
	}

	pipe.Close()
	pipe.Close() // idempotent
	if _, err := pipe.Add(enc.Message(0)); err == nil {
		t.Error("Add after Close succeeded")
	}
	if _, err := pipe.Decode(); err == nil {
		t.Error("Decode after Close succeeded")
	}
}

// TestPipelineSteadyStateAllocs is the acceptance-criteria benchmark
// assertion: once warmed up, a full feed-decode-retarget cycle performs
// zero heap allocations per accepted message (same pattern as
// internal/metrics' TestHotPathAllocFree).
func TestPipelineSteadyStateAllocs(t *testing.T) {
	k := 16
	enc, digests, _ := pipelineGen(t, gf.Bits8, k, 512, 13)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	msgs := make([]*Message, 0, 2*k)
	for id := uint64(0); id < uint64(2*k); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	out := make([]byte, enc.Params().DataLen)
	cycle := func() {
		for _, msg := range msgs {
			if _, err := pipe.Add(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := pipe.DecodeInto(out); err != nil {
			t.Fatal(err)
		}
		if err := pipe.Retarget(enc.Params(), enc.FileID(), digests); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up lazy hash state and map buckets
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("steady-state decode allocates %v times per cycle, want 0", n)
	}
}

// benchPipelineDecode measures full-generation decode throughput
// (bytes of recovered data per second) for one engine.
func benchDecode(b *testing.B, k, pieceLen int, pipeline bool) {
	enc, _, _ := pipelineGen(b, gf.Bits8, k, pieceLen, 21)
	msgs := make([]*Message, 0, k+4)
	for id := uint64(0); id < uint64(k+4); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	out := make([]byte, enc.Params().DataLen)
	b.SetBytes(int64(enc.Params().DataLen))
	b.ResetTimer()
	if pipeline {
		pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), nil, PipelineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer pipe.Close()
		for i := 0; i < b.N; i++ {
			for _, msg := range msgs {
				if pipe.Done() {
					break
				}
				if _, err := pipe.Add(msg); err != nil {
					b.Fatal(err)
				}
			}
			if err := pipe.DecodeInto(out); err != nil {
				b.Fatal(err)
			}
			if err := pipe.Retarget(enc.Params(), enc.FileID(), nil); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(enc.Params(), enc.FileID(), testSecret(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, msg := range msgs {
			if dec.Done() {
				break
			}
			if _, err := dec.Add(msg); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// 1 MiB generation at k=64: the acceptance-criteria configuration.
func BenchmarkDecodeSequential(b *testing.B) { benchDecode(b, 64, 1<<20/64, false) }
func BenchmarkDecodePipeline(b *testing.B)   { benchDecode(b, 64, 1<<20/64, true) }
