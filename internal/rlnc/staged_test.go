package rlnc

// The staged verify (DESIGN.md §9): arrivals park until the generation
// has what it still needs on hand, at most a lane pass, and are then
// digested side by side. These tests pin what parking must not change —
// every message is checked against its own digest before it can raise
// rank, a forged one is refused alone — and what it adds: no slot is
// lost however a generation ends.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"asymshare/internal/gf"
)

// slotsSettled fails the test unless every slot of the output is
// either a committed row's or back on the free list, with nothing
// parked or reserved — so parked plus committed never passed K — and
// no two rows share a slot: the state every generation must end in,
// however it ended. A slot is a chunk-vector of the output the engine
// was aimed at (retargetedAt), so this puts every row inside it.
func slotsSettled(t *testing.T, p *Pipeline, what string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.params.K
	if len(p.slotFree)+len(p.echelon) != k || len(p.rowFree)+len(p.echelon) != k ||
		p.reserved != 0 || len(p.parked) != 0 || p.verifying {
		t.Fatalf("%s: %d free slots, %d free rows, rank %d of %d, %d reserved, %d parked, verifying %v",
			what, len(p.slotFree), len(p.rowFree), len(p.echelon), k, p.reserved, len(p.parked), p.verifying)
	}
	held := make(map[int32]bool, k)
	for _, s := range p.slotFree {
		held[s] = true
	}
	for r := range p.echelon {
		s := p.rowSlot[r]
		if held[s] || s < 0 || int(s) >= k {
			t.Fatalf("%s: row %d's payload is in slot %d, out of range or held twice", what, r, s)
		}
		held[s] = true
	}
}

// retargetedAt fails the test unless p holds no row, no parked message
// and no output but out (nil: none yet), whose K chunk-vectors of
// capacity its slots are.
func retargetedAt(t *testing.T, p *Pipeline, out []byte, what string) {
	t.Helper()
	slotsSettled(t, p, what)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.echelon) != 0 || (p.out == nil) != (out == nil) ||
		out != nil && (&p.out[0] != &out[0] || len(p.out) != p.params.K*p.cb) {
		t.Fatalf("%s: rank %d, or the engine holds an output it was not aimed at", what, len(p.echelon))
	}
}

// stagedVerifySuite is run on the dispatched digest arm
// (TestStagedVerify) and on every arm the host has, forced
// (TestStagedVerifyScalarDispatch).
var stagedVerifySuite = []struct {
	name string
	run  func(*testing.T)
}{
	{"forged lane rejected alone", stagedForgedLane},
	{"forged repeat", stagedForgedRepeat},
	{"short generation", stagedShortGeneration},
	{"surplus skipped unhashed", stagedSurplusSkipped},
}

func TestStagedVerify(t *testing.T) {
	for _, c := range stagedVerifySuite {
		t.Run(c.name, c.run)
	}
}

// TestStagedVerifyScalarDispatch: groups are parked and settled the
// same way on every arm, whether digested in the lanes or one message
// at a time.
func TestStagedVerifyScalarDispatch(t *testing.T) {
	for _, c := range stagedVerifySuite {
		t.Run(c.name, func(t *testing.T) { OnDigestArms(t, c.run) })
	}
}

// stagedForgedLane puts a forged message in each of the eight lane
// positions in turn — a flipped payload byte, then another message's
// payload under this one's id. It must be the only one of its group
// rejected, rank must stop at seven, and the chunk must complete from a
// ninth message, verified on its own.
func stagedForgedLane(t *testing.T) {
	const k = digestLanes
	enc, digests, data := pipelineGen(t, gf.Bits32, k, 40, 5)
	forgeries := map[string]func(*Message){
		"payload": func(m *Message) { m.Payload[len(m.Payload)/2] ^= 0x40 },
		"id":      func(m *Message) { m.Payload = enc.Message(m.MessageID + 1).Payload },
	}
	for name, forge := range forgeries {
		for pos := 0; pos < k; pos++ {
			what := fmt.Sprintf("%s forged in lane %d", name, pos)
			pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				msg := enc.Message(uint64(i))
				if i == pos {
					forge(msg)
				}
				ok, err := pipe.AddBytes(marshal(t, msg))
				switch {
				case i < k-1 && (ok || err != nil):
					t.Fatalf("%s: parked message %d = (%v, %v), want no verdict yet", what, i, ok, err)
				case i == k-1 && pos == k-1 && !errors.Is(err, ErrBadDigest):
					t.Fatalf("%s: the group's last call = (%v, %v), want its own ErrBadDigest", what, ok, err)
				case i == k-1 && pos != k-1 && (!ok || err != nil):
					t.Fatalf("%s: the group's last call = (%v, %v), want its own message innovative", what, ok, err)
				}
				if i < k-1 && pipe.Rank() != 0 {
					t.Fatalf("%s: rank %d with nothing verified", what, pipe.Rank())
				}
			}
			want := Stats{Received: k, Accepted: k - 1, Rejected: 1}
			if st := pipe.Stats(); st != want || pipe.Rank() != k-1 || pipe.Done() {
				t.Fatalf("%s: stats %+v rank %d, want %+v rank %d", what, st, pipe.Rank(), want, k-1)
			}
			if ok, err := pipe.Add(enc.Message(uint64(k))); !ok || err != nil || !pipe.Done() {
				t.Fatalf("%s: ninth message = (%v, %v), done %v", what, ok, err, pipe.Done())
			}
			tel := pipe.Telemetry()
			wantLanes := uint64(0)
			if haveDigestLanes {
				wantLanes = k
			}
			if tel.VerifyGroups != 2 || tel.LaneMessages != wantLanes || tel.LaneMessages+tel.ScalarMessages != k+1 {
				t.Fatalf("%s: telemetry %+v, want 2 groups, %d messages through the lanes, %d digested", what, tel, wantLanes, k+1)
			}
			if got, err := pipe.Decode(); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: decode err %v, identical %v", what, err, bytes.Equal(got, data))
			}
			pipe.Close()
			slotsSettled(t, pipe, what)
		}
	}
}

// stagedForgedRepeat is the one stream shape on which the staged
// pipeline and the sequential decoder may file a message in different
// buckets: a forged copy of an id whose authentic copy came first. If
// that copy is still parked the repeat is digested with it and
// Rejected; once it is verified the repeat is a Duplicate, unhashed, as
// it is for the decoder. Either way it never raises rank.
func stagedForgedRepeat(t *testing.T) {
	const k = 4
	enc, digests, data := pipelineGen(t, gf.Bits8, k, 64, 6)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	forged := func(id uint64) *Message {
		m := enc.Message(id)
		m.Payload[0] ^= 1
		return m
	}
	for _, msg := range []*Message{enc.Message(0), forged(0), enc.Message(0), enc.Message(1)} {
		if _, err := pipe.Add(msg); err != nil {
			t.Fatal(err)
		}
	}
	if st, want := pipe.Stats(), (Stats{Received: 4, Accepted: 2, Rejected: 1, Duplicate: 1}); st != want {
		t.Fatalf("forged and authentic repeats of a parked id: stats %+v, want %+v", st, want)
	}
	if ok, err := pipe.Add(enc.Message(2)); ok || err != nil {
		t.Fatalf("third message = (%v, %v), want it parked: two are needed", ok, err)
	}
	digested := pipe.Telemetry().LaneMessages + pipe.Telemetry().ScalarMessages
	if ok, err := pipe.Add(forged(1)); ok || err != nil {
		t.Fatalf("forged repeat of a verified id = (%v, %v), want a silent duplicate", ok, err)
	}
	tel := pipe.Telemetry()
	if st := pipe.Stats(); st.Duplicate != 2 || st.Rejected != 1 || tel.LaneMessages+tel.ScalarMessages != digested {
		t.Fatalf("forged repeat of a verified id: stats %+v, %d more digests", st, tel.LaneMessages+tel.ScalarMessages-digested)
	}
	if ok, err := pipe.Add(enc.Message(3)); !ok || err != nil {
		t.Fatalf("last message = (%v, %v)", ok, err)
	}
	if got, err := pipe.Decode(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// stagedShortGeneration: producers that run dry leave messages parked
// below the group size. Settle (and Decode, which settles) must verify
// them anyway, so the caller sees how far the generation really got.
func stagedShortGeneration(t *testing.T) {
	const k = 9
	enc, digests, _ := pipelineGen(t, gf.Bits16, k, 64, 8)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bad := enc.Message(2)
	bad.Payload[7] ^= 0xff
	for _, msg := range []*Message{enc.Message(0), enc.Message(1), bad, enc.Message(3), enc.Message(4)} {
		if ok, err := pipe.Add(msg); ok || err != nil {
			t.Fatalf("parked message %d = (%v, %v)", msg.MessageID, ok, err)
		}
	}
	if pipe.Rank() != 0 || pipe.Stats() != (Stats{}) {
		t.Fatalf("parked messages counted before their verdict: rank %d, stats %+v", pipe.Rank(), pipe.Stats())
	}
	if _, err := pipe.Decode(); !errors.Is(err, ErrNotDecodable) {
		t.Fatalf("Decode of a short generation = %v, want ErrNotDecodable", err)
	}
	if st, want := pipe.Stats(), (Stats{Received: 5, Accepted: 4, Rejected: 1}); st != want || pipe.Rank() != 4 {
		t.Fatalf("after settling: stats %+v rank %d, want %+v rank 4", st, pipe.Rank(), want)
	}
	pipe.Close()
	slotsSettled(t, pipe, "short generation closed")
}

// stagedSurplusSkipped: once the generation is complete an arrival is
// redundant whatever it holds, and is settled without being digested.
func stagedSurplusSkipped(t *testing.T) {
	const k = 3
	enc, digests, _ := pipelineGen(t, gf.Bits32, k, 32, 9)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for id := uint64(0); id < k; id++ {
		if _, err := pipe.Add(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	before := pipe.Telemetry()
	garbage := enc.Message(k + 1)
	clear(garbage.Payload)
	for _, msg := range []*Message{enc.Message(k), garbage} {
		if ok, err := pipe.Add(msg); ok || err != nil {
			t.Fatalf("surplus message = (%v, %v)", ok, err)
		}
	}
	tel := pipe.Telemetry()
	if tel.SkippedRedundant != 2 || tel.VerifyGroups != before.VerifyGroups ||
		tel.LaneMessages+tel.ScalarMessages != before.LaneMessages+before.ScalarMessages {
		t.Fatalf("surplus arrivals were digested: before %+v, after %+v", before, tel)
	}
	if st, want := pipe.Stats(), (Stats{Received: k + 2, Accepted: k, Redundant: 2}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestStagedConcurrentProducers: four producers — a fetch's four peer
// streams — feed one engine streams that overlap, repeat and carry
// forgeries, through generation after generation, ending each a
// different way: decoded, retargeted with messages parked, closed with
// messages parked, closed under the producers' feet. Every slot must be
// accounted for each time: a committed row's, inside the output the
// engine was aimed at, or free — and after a Retarget, nothing but the
// new output is referenced. Run under -race (make race-codec).
func TestStagedConcurrentProducers(t *testing.T) {
	const producers = 4
	for _, k := range []int{3, 8, 32} {
		enc0, dig0, _ := retargetGen(t, gf.Bits8, k, 64, 0)
		pipe, err := NewPipeline(enc0.Params(), enc0.FileID(), testSecret(), dig0, PipelineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// feed runs the producers over enc's messages: producer pr sends
		// ids pr, pr+4, ... below limit, forging every fifth payload it
		// sends, then on a second pass every id again as a repeat.
		feed := func(enc *Encoder, limit, passes int) {
			var wg sync.WaitGroup
			for pr := 0; pr < producers; pr++ {
				wg.Add(1)
				go func(pr int) {
					defer wg.Done()
					for pass := 0; pass < passes; pass++ {
						for id, n := pr, 0; id < limit; id, n = id+producers, n+1 {
							msg := enc.Message(uint64(id))
							if pass == 0 && n%5 == 4 {
								msg.Payload[n%len(msg.Payload)] ^= 0x11
							}
							var err error
							if id%2 == 0 {
								_, err = pipe.Add(msg)
							} else {
								_, err = pipe.AddBytes(marshal(t, msg))
							}
							if err != nil && !errors.Is(err, ErrBadDigest) && !errors.Is(err, ErrPipelineClosed) {
								t.Errorf("k=%d producer %d id %d: %v", k, pr, id, err)
							}
						}
					}
				}(pr)
			}
			wg.Wait()
		}
		for g := 0; g < 6; g++ {
			enc, digests, data := retargetGen(t, gf.Bits8, k, 64, g)
			out := make([]byte, enc.Params().DataLen, enc.Params().CapacityBytes())
			if err := pipe.Retarget(enc.Params(), enc.FileID(), digests, out); err != nil {
				t.Fatalf("k=%d generation %d: %v", k, g, err)
			}
			retargetedAt(t, pipe, out, fmt.Sprintf("k=%d generation %d retargeted", k, g))
			if g%2 == 1 {
				// A short generation: fewer ids than rank needs, so the
				// last of them (all of them, at k ≤ 8) are left parked
				// for the next Retarget to drop.
				feed(enc, k-1, 1)
				if pipe.Done() || pipe.Rank() > (k-1)/digestLanes*digestLanes {
					t.Fatalf("k=%d generation %d: rank %d from %d messages", k, g, pipe.Rank(), k-1)
				}
				continue
			}
			feed(enc, 3*k, 2)
			st := pipe.Stats()
			if !pipe.Done() || st.Accepted != k || st.Received != st.Accepted+st.Rejected+st.Duplicate+st.Redundant {
				t.Fatalf("k=%d generation %d: done %v, stats %+v", k, g, pipe.Done(), st)
			}
			if err := pipe.DecodeInto(out); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("k=%d generation %d: decode err %v, identical %v", k, g, err, bytes.Equal(out, data))
			}
			slotsSettled(t, pipe, fmt.Sprintf("k=%d generation %d decoded", k, g))
		}
		// Close with messages parked, then once more under the producers.
		enc, digests, _ := retargetGen(t, gf.Bits8, k, 64, 6)
		if err := pipe.Retarget(enc.Params(), enc.FileID(), digests, nil); err != nil {
			t.Fatal(err)
		}
		retargetedAt(t, pipe, nil, fmt.Sprintf("k=%d retargeted at no output", k))
		feed(enc, k-1, 1)
		pipe.Close()
		slotsSettled(t, pipe, fmt.Sprintf("k=%d closed with messages parked", k))

		pipe, err = NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests, PipelineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			for pipe.Rank() < k/2 {
				runtime.Gosched()
			}
			pipe.Close()
		}()
		feed(enc, 3*k, 2)
		<-closed
		slotsSettled(t, pipe, fmt.Sprintf("k=%d closed under its producers", k))
	}
}
