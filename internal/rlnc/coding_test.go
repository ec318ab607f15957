package rlnc

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"asymshare/internal/gf"
)

func testFields(t *testing.T) []gf.Field {
	t.Helper()
	out := make([]gf.Field, 0, 4)
	for _, bits := range gf.Widths() {
		f, err := gf.New(bits)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func testSecret() []byte {
	s := make([]byte, SecretLen)
	for i := range s {
		s[i] = byte(i*7 + 3)
	}
	return s
}

func mustParams(t testing.TB, f gf.Field, k, m, dataLen int) Params {
	t.Helper()
	p, err := NewParams(f, k, m, dataLen)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomData(rng *rand.Rand, n int) []byte {
	d := make([]byte, n)
	rng.Read(d)
	return d
}

func TestParamsValidation(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	if _, err := NewParams(nil, 4, 8, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil field error = %v", err)
	}
	if _, err := NewParams(f, 0, 8, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := NewParams(f, 4, 0, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("m=0 error = %v", err)
	}
	if _, err := NewParams(f, 4, 8, 4*8+1); !errors.Is(err, ErrDataTooLarge) {
		t.Errorf("oversize error = %v", err)
	}
	// GF(16) with odd m is not byte aligned.
	f4 := gf.MustNew(gf.Bits4)
	if _, err := NewParams(f4, 4, 3, 2); !errors.Is(err, ErrBadParams) {
		t.Errorf("unaligned error = %v", err)
	}
}

func TestParamsForSizeMatchesTableI(t *testing.T) {
	// Table I of the paper: number of messages k to encode 1 MB of data
	// for field size q and message length m symbols.
	const mb = 1 << 20
	want := map[uint]map[int]int{
		gf.Bits4:  {1 << 13: 256, 1 << 14: 128, 1 << 15: 64, 1 << 16: 32, 1 << 17: 16, 1 << 18: 8},
		gf.Bits8:  {1 << 13: 128, 1 << 14: 64, 1 << 15: 32, 1 << 16: 16, 1 << 17: 8, 1 << 18: 4},
		gf.Bits16: {1 << 13: 64, 1 << 14: 32, 1 << 15: 16, 1 << 16: 8, 1 << 17: 4, 1 << 18: 2},
		gf.Bits32: {1 << 13: 32, 1 << 14: 16, 1 << 15: 8, 1 << 16: 4, 1 << 17: 2, 1 << 18: 1},
	}
	for bits, row := range want {
		f := gf.MustNew(bits)
		for m, k := range row {
			p, err := ParamsForSize(f, mb, m)
			if err != nil {
				t.Fatalf("ParamsForSize(GF(2^%d), 1MB, %d): %v", bits, m, err)
			}
			if p.K != k {
				t.Errorf("GF(2^%d) m=%d: k = %d, want %d", bits, m, p.K, k)
			}
		}
	}
}

func TestParamsGeometry(t *testing.T) {
	f := gf.MustNew(gf.Bits32)
	p := mustParams(t, f, 8, 1<<15, 1<<20)
	if got := p.ChunkBytes(); got != 1<<17 {
		t.Errorf("ChunkBytes = %d", got)
	}
	if got := p.CapacityBytes(); got != 1<<20 {
		t.Errorf("CapacityBytes = %d", got)
	}
	if got := p.MessageBytes(); got != 16+1<<17 {
		t.Errorf("MessageBytes = %d", got)
	}
	if p.Overhead() <= 0 || p.Overhead() >= 0.001 {
		t.Errorf("Overhead = %v out of expected range", p.Overhead())
	}
}

func TestCoeffGeneratorDeterministic(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	g1, err := NewCoeffGenerator(f, 16, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewCoeffGenerator(f, 16, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	r1 := g1.Row(7, 42)
	r2 := g2.Row(7, 42)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same secret and ids produced different rows")
		}
	}
	// Different message id, file id, or secret changes the row.
	if rowsEqual(r1, g1.Row(7, 43)) {
		t.Error("different message-id produced identical row")
	}
	if rowsEqual(r1, g1.Row(8, 42)) {
		t.Error("different file-id produced identical row")
	}
	other, err := NewCoeffGenerator(f, 16, []byte("other secret"))
	if err != nil {
		t.Fatal(err)
	}
	if rowsEqual(r1, other.Row(7, 42)) {
		t.Error("different secret produced identical row")
	}
}

func rowsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoeffGeneratorValidation(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	if _, err := NewCoeffGenerator(nil, 4, testSecret()); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil field error = %v", err)
	}
	if _, err := NewCoeffGenerator(f, 0, testSecret()); !errors.Is(err, ErrBadParams) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := NewCoeffGenerator(f, 4, nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("empty secret error = %v", err)
	}
}

func TestCoeffGeneratorCopiesSecret(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	secret := testSecret()
	g, err := NewCoeffGenerator(f, 8, secret)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Row(1, 1)
	secret[0] ^= 0xFF // caller mutates its copy
	after := g.Row(1, 1)
	if !rowsEqual(before, after) {
		t.Error("generator shares the caller's secret slice")
	}
}

func TestCoeffDistributionRoughlyUniform(t *testing.T) {
	// Over GF(16), coefficient values should be close to uniform; a
	// grossly biased generator would break the independence arguments.
	f := gf.MustNew(gf.Bits4)
	g, err := NewCoeffGenerator(f, 64, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	total := 0
	for id := uint64(0); id < 200; id++ {
		for _, v := range g.Row(1, id) {
			counts[v]++
			total++
		}
	}
	expect := float64(total) / 16
	for v, c := range counts {
		if float64(c) < 0.7*expect || float64(c) > 1.3*expect {
			t.Errorf("value %d count %d deviates from uniform expectation %.0f", v, c, expect)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{FileID: 0xDEADBEEF01020304, MessageID: 42, Payload: []byte{1, 2, 3, 4}}
	buf, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 16+4 {
		t.Fatalf("serialized length %d", len(buf))
	}
	got, err := ViewMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FileID != m.FileID || got.MessageID != m.MessageID || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// ViewMessage aliases the payload: the caller copies what it keeps.
	buf[16] ^= 0xFF
	if got.Payload[0] != buf[16] {
		t.Error("ViewMessage copied the payload")
	}
}

func TestMessageUnmarshalShort(t *testing.T) {
	if _, err := ViewMessage(make([]byte, 15)); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short parse error = %v", err)
	}
}

// TestMessageReadWrite: the serve path's framing — PutHeader, then the
// payload — writes MarshalBinary's bytes, and ViewMessage reads them
// back.
func TestMessageReadWrite(t *testing.T) {
	m := &Message{FileID: 9, MessageID: 10, Payload: []byte{5, 6, 7, 8, 9, 10}}
	framed := make([]byte, MessageHeaderBytes, MessageHeaderBytes+len(m.Payload))
	m.PutHeader(framed)
	framed = append(framed, m.Payload...)
	want, err := m.MarshalBinary()
	if err != nil || !bytes.Equal(framed, want) {
		t.Fatalf("PutHeader+payload = %x, MarshalBinary = %x (%v)", framed, want, err)
	}
	got, err := ViewMessage(framed)
	if err != nil {
		t.Fatal(err)
	}
	if got.FileID != 9 || got.MessageID != 10 || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("ViewMessage mismatch: %+v", got)
	}
}

func TestMessageDigestDetectsTampering(t *testing.T) {
	m := &Message{FileID: 1, MessageID: 2, Payload: []byte{1, 2, 3, 4}}
	d := m.Digest()
	tampered := m.Clone()
	tampered.Payload[0] ^= 1
	if tampered.Digest() == d {
		t.Error("payload tampering not reflected in digest")
	}
	renamed := m.Clone()
	renamed.MessageID = 3
	if renamed.Digest() == d {
		t.Error("message-id tampering not reflected in digest")
	}
}

func TestEncodeDecodeRoundTripAllFields(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, f := range testFields(t) {
		k, m := 12, 32
		p := mustParams(t, f, k, m, k*gf.VecBytes(f.Bits(), m)-5) // exercise padding
		data := randomData(rng, p.DataLen)
		enc, err := NewEncoder(p, 77, testSecret(), data)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(p, 77, testSecret(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); !dec.Done(); id++ {
			if id > uint64(4*k) {
				t.Fatalf("GF(2^%d): needed more than %d messages for k=%d", f.Bits(), 4*k, k)
			}
			if _, err := dec.Add(enc.Message(id)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("GF(2^%d): decode mismatch", f.Bits())
		}
	}
}

func TestDecodeFromSingleBatch(t *testing.T) {
	// A batch produced by BatchForPeer is guaranteed invertible: exactly
	// k messages from one peer must always decode.
	rng := rand.New(rand.NewSource(33))
	for _, f := range testFields(t) {
		k := 8
		p := mustParams(t, f, k, 16, k*gf.VecBytes(f.Bits(), 16))
		data := randomData(rng, p.DataLen)
		enc, err := NewEncoder(p, 5, testSecret(), data)
		if err != nil {
			t.Fatal(err)
		}
		for peer := 0; peer < 4; peer++ {
			batch, err := enc.BatchForPeer(peer, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != k {
				t.Fatalf("batch size %d, want %d", len(batch), k)
			}
			dec, err := NewDecoder(p, 5, testSecret(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range batch {
				if _, err := dec.Add(msg); err != nil {
					t.Fatal(err)
				}
			}
			if !dec.Done() {
				t.Fatalf("GF(2^%d) peer %d: batch of k messages did not reach rank k", f.Bits(), peer)
			}
			got, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("GF(2^%d) peer %d: decode mismatch", f.Bits(), peer)
			}
		}
	}
}

func TestDecodeAcrossPeers(t *testing.T) {
	// Messages drawn from different peers' batches combine into a
	// decodable set w.h.p. — the parallel-download path.
	rng := rand.New(rand.NewSource(35))
	f := gf.MustNew(gf.Bits32)
	k := 9
	p := mustParams(t, f, k, 8, k*gf.VecBytes(f.Bits(), 8))
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 6, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p, 6, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three messages from each of three peers.
	for peer := 0; peer < 3; peer++ {
		batch, err := enc.BatchForPeer(peer, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := dec.Add(batch[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !dec.Done() {
		t.Fatalf("rank %d after 9 cross-peer messages", dec.Rank())
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-peer decode mismatch")
	}
}

func TestDecoderRejectsForgeries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := gf.MustNew(gf.Bits8)
	k := 6
	p := mustParams(t, f, k, 16, k*16)
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 3, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := enc.BatchForPeer(0, k)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]Digest, k)
	for _, msg := range batch {
		digests[msg.MessageID] = msg.Digest()
	}
	dec, err := NewDecoder(p, 3, testSecret(), digests)
	if err != nil {
		t.Fatal(err)
	}

	// A forged payload must be rejected.
	forged := batch[0].Clone()
	forged.Payload[3] ^= 0x55
	if _, err := dec.Add(forged); !errors.Is(err, ErrBadDigest) {
		t.Errorf("forged message error = %v, want ErrBadDigest", err)
	}
	// An unknown message-id must be rejected when digests are pinned.
	unknown := enc.Message(batchStride * 99)
	if _, err := dec.Add(unknown); !errors.Is(err, ErrBadDigest) {
		t.Errorf("unknown-id message error = %v, want ErrBadDigest", err)
	}
	// Authentic messages still decode.
	for _, msg := range batch {
		if _, err := dec.Add(msg); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode after forgery attempts mismatch")
	}
	if st := dec.Stats(); st.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", st.Rejected)
	}
}

func TestDecoderDuplicateAndWrongFile(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	f := gf.MustNew(gf.Bits8)
	k := 4
	p := mustParams(t, f, k, 8, k*8)
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 1, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p, 1, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := enc.Message(0)
	if innovative, err := dec.Add(msg); err != nil || !innovative {
		t.Fatalf("first Add = %v, %v", innovative, err)
	}
	if innovative, err := dec.Add(msg.Clone()); err != nil || innovative {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", innovative, err)
	}
	wrong := msg.Clone()
	wrong.FileID = 2
	if _, err := dec.Add(wrong); !errors.Is(err, ErrWrongFile) {
		t.Errorf("wrong-file error = %v", err)
	}
	short := msg.Clone()
	short.Payload = short.Payload[:4]
	if _, err := dec.Add(short); !errors.Is(err, ErrBadParams) {
		t.Errorf("short-payload error = %v", err)
	}
	if st := dec.Stats(); st.Duplicate != 1 {
		t.Errorf("duplicates = %d, want 1", st.Duplicate)
	}
}

func TestDecodeBeforeDone(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	p := mustParams(t, f, 4, 8, 32)
	dec, err := NewDecoder(p, 1, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrNotDecodable) {
		t.Errorf("early Decode error = %v", err)
	}
}

func TestEncoderValidation(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	p := mustParams(t, f, 4, 8, 30)
	if _, err := NewEncoder(p, 1, testSecret(), make([]byte, 31)); !errors.Is(err, ErrBadParams) {
		t.Errorf("length mismatch error = %v", err)
	}
	enc, err := NewEncoder(p, 1, testSecret(), make([]byte, 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.BatchForPeer(-1, 4); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative peer error = %v", err)
	}
	if _, err := enc.BatchForPeer(0, 5); !errors.Is(err, ErrBadParams) {
		t.Errorf("n>k error = %v", err)
	}
	if _, err := enc.BatchForPeer(0, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("n=0 error = %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := gf.MustNew(gf.Bits8)
	prop := func(seed int64, kRaw, payloadTail uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%12 + 1
		m := 8
		dataLen := (k-1)*m + int(payloadTail)%m + 1
		p, err := NewParams(f, k, m, dataLen)
		if err != nil {
			return false
		}
		data := randomData(rng, dataLen)
		enc, err := NewEncoder(p, 1, testSecret(), data)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(p, 1, testSecret(), nil)
		if err != nil {
			return false
		}
		for id := uint64(0); !dec.Done() && id < uint64(6*k); id++ {
			if _, err := dec.Add(enc.Message(id)); err != nil {
				return false
			}
		}
		got, err := dec.Decode()
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInnovationOverheadSmallForLargeFields(t *testing.T) {
	// With q = 2^32, nearly every random message is innovative; the
	// expected overhead beyond k messages is ~ k/(q-1), i.e. zero in
	// practice.
	rng := rand.New(rand.NewSource(47))
	f := gf.MustNew(gf.Bits32)
	k := 16
	p := mustParams(t, f, k, 4, k*16)
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 2, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p, 2, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < uint64(k); id++ {
		if _, err := dec.Add(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Done() {
		t.Errorf("rank %d after exactly k=%d random GF(2^32) messages", dec.Rank(), k)
	}
}

// batchOf returns one message per id with an n-byte payload of fill
// bytes.
func batchOf(ids []uint64, n int, fill byte) []*Message {
	msgs := make([]*Message, len(ids))
	for i, id := range ids {
		msgs[i] = &Message{MessageID: id, Payload: bytes.Repeat([]byte{fill}, n)}
	}
	return msgs
}

// TestNewEncoderReadsDataInPlace pins the encoder's aliasing contract:
// over full-length pieces NewEncoder allocates less than one chunk (it
// copies nothing), minting never writes into data, and a short last
// piece is padded in a copy — bytes past data's length, even within its
// capacity, are never read.
func TestNewEncoderReadsDataInPlace(t *testing.T) {
	p := mustParams(t, gf.MustNew(gf.Bits32), 8, 1<<15, 8<<17)
	data := goldenData(p.DataLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc, err := NewEncoder(p, 1, testSecret(), data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(p.ChunkBytes()) {
		t.Errorf("NewEncoder over %d full pieces allocated %d bytes, want < one %d-byte chunk", p.K, got, p.ChunkBytes())
	}

	orig := bytes.Clone(data)
	batch := batchOf([]uint64{0, 1, 1 << 32}, p.ChunkBytes(), 0)
	for _, m := range batch {
		enc.MessageInto(m.MessageID, m.Payload)
	}
	enc.MessageInto(7, batch[0].Payload)
	if _, err := enc.BatchForPeer(1, p.K); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("minting wrote into the encoder's data")
	}

	// A short tail inside a larger buffer whose spare capacity is dirty.
	short := mustParams(t, gf.MustNew(gf.Bits32), 3, 17, 2*68+5)
	backing := bytes.Repeat([]byte{0xA5}, 3*68)
	copy(backing, goldenData(short.DataLen))
	tailEnc, err := NewEncoder(short, 2, testSecret(), backing[:short.DataLen])
	if err != nil {
		t.Fatal(err)
	}
	cleanEnc, err := NewEncoder(short, 2, testSecret(), bytes.Clone(backing[:short.DataLen]))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{0, 5, 1 << 40} {
		if !tailEnc.Message(id).Equal(cleanEnc.Message(id)) {
			t.Fatalf("id %d: bytes past the data's length reached the mint", id)
		}
	}
	if !bytes.Equal(backing[short.DataLen:], bytes.Repeat([]byte{0xA5}, len(backing)-short.DataLen)) {
		t.Fatal("padding was written into the caller's spare capacity")
	}
}
