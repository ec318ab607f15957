package wire

// Differential coverage for the pooled framing path: FrameWriter must
// emit the bytes a hand-built encoding of the same frames has, and
// FrameReader must parse any stream into the same (type, payload,
// error-class) sequence the reference decoder readFrame produces. The
// suites run against a private pool and assert the teardown invariants
// — zero live buffers, zero double-releases — after every scenario.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// frame is one frame as the tests build and compare it.
type frame struct {
	Type    Type
	Payload []byte
}

// appendFrame appends one frame's encoding, built by hand: the type
// byte, the 4-byte big-endian payload length, the payload.
func appendFrame(dst []byte, t Type, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readFrame is the reference decoder FrameReader is checked against:
// the header with one io.ReadFull, the size check, the body with
// another, into a fresh slice.
func readFrame(r io.Reader) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, fmt.Errorf("wire: short frame body: %w", err)
	}
	return frame{Type: Type(hdr[0]), Payload: payload}, nil
}

// checkPool fails the test if the pool leaked or double-released.
func checkPool(t *testing.T, p *Pool) {
	t.Helper()
	st := p.Stats()
	if st.Live != 0 {
		t.Errorf("pool leak: %d live buffers at teardown", st.Live)
	}
	if st.DoubleReleases != 0 {
		t.Errorf("%d double-releases at teardown", st.DoubleReleases)
	}
}

// randomFrames builds a deterministic mixed batch of frames.
func randomFrames(rng *rand.Rand, n int) []frame {
	types := []Type{TypeData, TypeGet, TypeStop, TypePutOK, TypeGetMux, TypeStreamError}
	frames := make([]frame, n)
	for i := range frames {
		var payload []byte
		switch rng.Intn(4) {
		case 0: // empty
		case 1:
			payload = make([]byte, 1+rng.Intn(64))
		case 2:
			payload = make([]byte, 1+rng.Intn(4096))
		default:
			payload = make([]byte, 1+rng.Intn(64<<10))
		}
		rng.Read(payload)
		frames[i] = frame{Type: types[rng.Intn(len(types))], Payload: payload}
	}
	return frames
}

// TestFrameWriterByteIdentity writes a frame batch through every
// FrameWriter queueing mode and requires the stream to be bit-identical
// to the hand-built encoding of the same frames.
func TestFrameWriterByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	frames := randomFrames(rng, 64)

	var want []byte
	for _, f := range frames {
		want = appendFrame(want, f.Type, f.Payload)
	}

	pool := NewPool()
	var pooled bytes.Buffer
	fw := &FrameWriter{w: &pooled, pool: pool}
	for i, f := range frames {
		var err error
		switch i % 4 {
		case 0:
			err = fw.Queue(f.Type, f.Payload)
		case 1:
			// Split an arbitrary head off the payload, as the DATA
			// serve path does with the 16-byte message header.
			cut := len(f.Payload) / 3
			err = fw.QueueSpan(f.Type, f.Payload[:cut], f.Payload[cut:])
		case 2:
			b := pool.Get(len(f.Payload))
			copy(b.Bytes(), f.Payload)
			err = fw.QueueBuf(f.Type, b)
		default:
			err = fw.WriteFrame(f.Type, f.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, pooled.Bytes()) {
		t.Fatalf("streams diverge: hand-built %d bytes, written %d bytes", len(want), pooled.Len())
	}
	checkPool(t, pool)
}

// TestFrameReaderMatchesReadFrame runs FrameReader and the reference
// decoder over the same stream and requires the same frames in the same
// order.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	frames := randomFrames(rng, 48)
	var raw []byte
	for _, f := range frames {
		raw = appendFrame(raw, f.Type, f.Payload)
	}

	pool := NewPool()
	fr := NewFrameReaderPool(bytes.NewReader(raw), pool)
	ref := bytes.NewReader(raw)
	for i := range frames {
		want, wantErr := readFrame(ref)
		ty, b, err := fr.Next()
		if wantErr != nil || err != nil {
			t.Fatalf("frame %d: reference err %v, pooled err %v", i, wantErr, err)
		}
		if ty != want.Type || !bytes.Equal(b.Bytes(), want.Payload) {
			t.Fatalf("frame %d diverges: %s vs %s", i, ty, want.Type)
		}
		b.Release()
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Errorf("end-of-stream error = %v, want io.EOF", err)
	}
	checkPool(t, pool)
}

// TestFrameReaderErrorClasses pins the error taxonomy shared with the
// reference decoder: clean EOF, torn header, torn body, oversized
// length.
func TestFrameReaderErrorClasses(t *testing.T) {
	pool := NewPool()
	cases := []struct {
		name  string
		bytes []byte
		check func(error) bool
	}{
		{"clean EOF", nil, func(err error) bool { return err == io.EOF }},
		{"torn header", []byte{byte(TypeData), 0, 0}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"torn header of one byte", []byte{byte(TypeData)}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"torn header of four bytes", []byte{byte(TypeData), 0, 0, 0}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"torn body", []byte{byte(TypeData), 0, 0, 0, 10, 1, 2}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"oversized", []byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF}, func(err error) bool { return errors.Is(err, ErrFrameTooLarge) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The pooled reader.
			fr := NewFrameReaderPool(bytes.NewReader(tc.bytes), pool)
			_, _, err := fr.Next()
			if !tc.check(err) {
				t.Errorf("pooled error = %v", err)
			}
			// The reference decoder must agree on the class.
			_, rerr := readFrame(bytes.NewReader(tc.bytes))
			if tc.check(err) != tc.check(rerr) {
				t.Errorf("reference error = %v disagrees with pooled %v", rerr, err)
			}
		})
	}
	checkPool(t, pool)
}

// TestFrameReaderLargeFrame covers payloads bigger than the reader's
// 64 KiB fill window, which take the direct io.ReadFull path.
func TestFrameReaderLargeFrame(t *testing.T) {
	pool := NewPool()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(payload)
	stream := appendFrame(nil, TypeData, payload)
	stream = appendFrame(stream, TypeStop, []byte("tail"))
	fr := NewFrameReaderPool(bytes.NewReader(stream), pool)
	ty, b, err := fr.Next()
	if err != nil || ty != TypeData || !bytes.Equal(b.Bytes(), payload) {
		t.Fatalf("large frame: type %s err %v", ty, err)
	}
	b.Release()
	ty, b, err = fr.Next()
	if err != nil || ty != TypeStop || string(b.Bytes()) != "tail" {
		t.Fatalf("frame after large: type %s err %v", ty, err)
	}
	b.Release()
	checkPool(t, pool)
}

// TestFrameWriterAutoFlush verifies that queueing past the watermark
// pushes bytes out without an explicit Flush.
func TestFrameWriterAutoFlush(t *testing.T) {
	pool := NewPool()
	var out bytes.Buffer
	fw := &FrameWriter{w: &out, pool: pool}
	payload := make([]byte, 64<<10)
	for i := 0; i < 8; i++ { // 8 × 64 KiB > writerAutoFlush
		if err := fw.Queue(TypeData, payload); err != nil {
			t.Fatal(err)
		}
	}
	if out.Len() == 0 {
		t.Fatal("nothing flushed past the auto-flush watermark")
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 8 * (5 + len(payload)); out.Len() != want {
		t.Fatalf("stream length = %d, want %d", out.Len(), want)
	}
	checkPool(t, pool)
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("broken pipe") }

// TestFrameWriterReleasesOwnedOnError: buffers handed over with
// QueueBuf must be released even when the flush fails.
func TestFrameWriterReleasesOwnedOnError(t *testing.T) {
	pool := NewPool()
	fw := &FrameWriter{w: failWriter{}, pool: pool}
	b := pool.Get(100 << 10) // big enough to take the vectored path
	if err := fw.QueueBuf(TypeData, b); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err == nil {
		t.Fatal("flush on broken writer succeeded")
	}
	// And the coalesced path.
	c := pool.Get(16)
	if err := fw.QueueBuf(TypeData, c); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err == nil {
		t.Fatal("flush on broken writer succeeded")
	}
	checkPool(t, pool)
}

// TestFrameWriterOversize pins the MaxFrameSize refusal in every
// queueing mode.
func TestFrameWriterOversize(t *testing.T) {
	pool := NewPool()
	var out bytes.Buffer
	fw := &FrameWriter{w: &out, pool: pool}
	big := make([]byte, MaxFrameSize+1)
	if err := fw.Queue(TypeData, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Queue error = %v", err)
	}
	if err := fw.QueueSpan(TypeData, big[:16], big[16:]); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("QueueSpan error = %v", err)
	}
	b := pool.Get(MaxFrameSize + 1)
	if err := fw.QueueBuf(TypeData, b); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("QueueBuf error = %v", err)
	}
	if err := fw.Flush(); err != nil || out.Len() != 0 {
		t.Errorf("refused frames still wrote %d bytes (err %v)", out.Len(), err)
	}
	checkPool(t, pool)
}

// TestFrameReaderExpect pins Expect's contract with a private pool: a
// wrong type and a remote ERROR are errors that leave nothing to
// release, the wanted type hands its buffer over.
func TestFrameReaderExpect(t *testing.T) {
	pool := NewPool()
	stream := appendFrame(nil, TypeGet, (&Get{FileID: 1}).Marshal())
	fr := NewFrameReaderPool(bytes.NewReader(stream), pool)
	if _, err := fr.Expect(TypeStop); !errors.Is(err, ErrUnexpectedFrame) {
		t.Errorf("wrong type error = %v", err)
	}

	stream = appendFrame(nil, TypeError, (&ErrorMsg{Code: CodeUnknownFile, Reason: "nope"}).Marshal())
	fr = NewFrameReaderPool(bytes.NewReader(stream), pool)
	_, err := fr.Expect(TypeData)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeUnknownFile || remote.Reason != "nope" {
		t.Errorf("remote error = %v", err)
	}

	fr = NewFrameReaderPool(bytes.NewReader(appendFrame(nil, TypePutOK, []byte("ok"))), pool)
	b, err := fr.Expect(TypePutOK)
	if err != nil || string(b.Bytes()) != "ok" {
		t.Fatalf("Expect = %v, %v", b, err)
	}
	b.Release()
	checkPool(t, pool)
}

func TestStreamErrorRoundTrip(t *testing.T) {
	e := StreamError{FileID: 0xDEADBEEF42, Code: CodeUnknownFile, Reason: "file 7"}
	var got StreamError
	if err := got.Unmarshal(e.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip = %+v, want %+v", &got, &e)
	}
	if err := got.Unmarshal(make([]byte, 9)); err == nil {
		t.Error("short stream error accepted")
	}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}
