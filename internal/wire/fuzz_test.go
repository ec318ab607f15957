package wire

// Fuzzing of the handshake state machines against adversarial bytes.
// The frames a fuzzer can synthesize must never panic either side,
// must never authenticate (a valid signature over a fresh random
// nonce cannot be forged), and everything a confused responder writes
// back — including its ERROR rejections — must itself be well-formed
// framing.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"asymshare/internal/auth"
)

// script feeds canned bytes to a handshake and captures its output.
type script struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (s *script) Read(p []byte) (int, error)  { return s.in.Read(p) }
func (s *script) Write(p []byte) (int, error) { return s.out.Write(p) }

func fuzzIdentity(f *testing.F) *auth.Identity {
	f.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		f.Fatal(err)
	}
	return id
}

// checkWellFormedOutput verifies that out contains only complete,
// parseable frames: clean error paths must not emit torn frames.
func checkWellFormedOutput(t *testing.T, out []byte) {
	r := bytes.NewReader(out)
	for {
		if _, err := readFrame(r); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("handshake wrote a malformed frame: %v (output %x)", err, out)
			}
			return
		}
	}
}

func FuzzHandshakeResponder(f *testing.F) {
	id := fuzzIdentity(f)

	// Structural seeds: a plausible HELLO (and AUTH) prefix so the
	// fuzzer starts deep in the state machine rather than at frame 1.
	h := Hello{Role: RoleUser, PubKey: id.Public(), Nonce: bytes.Repeat([]byte{9}, 32)}
	hello := appendFrame(nil, TypeHello, h.Marshal())
	f.Add(hello)
	a := AuthResponse{PubKey: id.Public(), Signature: bytes.Repeat([]byte{3}, 64)}
	f.Add(appendFrame(append([]byte(nil), hello...), TypeAuthResponse, a.Marshal()))
	f.Add([]byte{})
	f.Add([]byte{byte(TypeHello), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &script{in: bytes.NewReader(data)}
		key, _, err := ResponderHandshake(NewFrameReader(s), NewFrameWriter(s), id, nil)
		if err == nil {
			t.Fatalf("fuzzed bytes authenticated as %x", key)
		}
		if key != nil {
			t.Fatal("failed handshake still returned a key")
		}
		checkWellFormedOutput(t, s.out.Bytes())
	})
}

func FuzzHandshakeInitiator(f *testing.F) {
	id := fuzzIdentity(f)

	// A plausible CHALLENGE reply (wrong signature, right shape).
	ch := Challenge{
		PubKey:    id.Public(),
		Signature: bytes.Repeat([]byte{5}, 64),
		Nonce:     bytes.Repeat([]byte{6}, 32),
	}
	f.Add(appendFrame(nil, TypeChallenge, ch.Marshal()))
	f.Add([]byte{})
	f.Add([]byte{byte(TypeError), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &script{in: bytes.NewReader(data)}
		key, err := InitiatorHandshake(NewFrameReader(s), NewFrameWriter(s), id, RoleUser, nil)
		if err == nil {
			t.Fatalf("fuzzed responder authenticated as %x", key)
		}
		if key != nil {
			t.Fatal("failed handshake still returned a key")
		}
		checkWellFormedOutput(t, s.out.Bytes())
	})
}

// frameErrClass buckets a read error into the taxonomy both readers
// share: clean end-of-stream, torn frame, oversized length. Anything
// else is its own class by message.
func frameErrClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "torn"
	case errors.Is(err, ErrFrameTooLarge):
		return "oversize"
	default:
		return "other: " + err.Error()
	}
}

// fuzzSeedMux builds an interleaved muxed DATA stream: frames for two
// file IDs alternating, each payload led by its 8-byte big-endian
// stream id — the exact shape a multiplexed connection carries.
func fuzzSeedMux() []byte {
	var buf []byte
	for i := 0; i < 4; i++ {
		for _, fid := range []byte{0xAA, 0xBB} {
			payload := append([]byte{0, 0, 0, 0, 0, 0, 0, fid}, bytes.Repeat([]byte{fid ^ byte(i)}, 24)...)
			buf = appendFrame(buf, TypeData, payload)
		}
	}
	buf = appendFrame(buf, TypeStop, []byte{0, 0, 0, 0, 0, 0, 0, 0xAA})
	return appendFrame(buf, TypeStreamError, (&StreamError{FileID: 0xBB, Code: CodeUnknownFile, Reason: "x"}).Marshal())
}

// fuzzSeedOverload builds the overload-control exchange: an extended
// GET_MUX carrying deadline and priority, a shed answered with BUSY /
// RETRY_AFTER, and a deadline-expired drop — the frames ISSUE 10 adds
// to the protocol.
func fuzzSeedOverload() []byte {
	buf := appendFrame(nil, TypeGetMux, (&Get{FileID: 0xAA, DeadlineMillis: 1500, Priority: 3}).Marshal())
	buf = appendFrame(buf, TypeGetMux, (&Get{FileID: 0xBB, Limit: 7}).Marshal()) // legacy 12-byte form
	buf = appendFrame(buf, TypeBusy, (&Busy{FileID: 0xBB, Code: CodeBusy, RetryAfterMillis: 250, Reason: "shed"}).Marshal())
	return appendFrame(buf, TypeBusy, (&Busy{FileID: 0xAA, Code: CodeExpired, Reason: "deadline passed"}).Marshal())
}

// FuzzFrameReader is the differential fuzzer: any byte stream, parsed
// by the pooled FrameReader and the reference decoder readFrame, must
// yield the identical (type, payload, error-class) sequence — and
// the reader's pool must come out of every input, malformed or not,
// with zero live buffers and zero double-releases.
func FuzzFrameReader(f *testing.F) {
	f.Add(fuzzSeedMux())
	f.Add(fuzzSeedOverload())
	f.Add([]byte{byte(TypeBusy), 0, 0, 0, 4, 1, 2, 3, 4}) // busy frame too short to parse
	f.Add([]byte{})                                       // clean EOF
	f.Add([]byte{byte(TypeData), 0, 0})                   // torn header
	f.Add([]byte{byte(TypeData), 0, 0, 0, 8, 1})          // torn body
	f.Add([]byte{byte(TypeGet), 0xFF, 0xFF, 0xFF, 0xFF})  // oversized length
	torn := fuzzSeedMux()
	f.Add(torn[:len(torn)-7]) // valid interleaving ending in a torn frame
	// A frame larger than the fill window.
	f.Add(appendFrame(appendFrame(nil, TypeData, make([]byte, 66<<10)), TypeStop, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := NewPool()
		fr := NewFrameReaderPool(bytes.NewReader(data), pool)
		ref := bytes.NewReader(data)
		for i := 0; ; i++ {
			want, wantErr := readFrame(ref)
			ty, b, err := fr.Next()
			if wc, gc := frameErrClass(wantErr), frameErrClass(err); wc != gc {
				t.Fatalf("frame %d: reference error class %q, pooled %q (reference err %v, pooled err %v)",
					i, wc, gc, wantErr, err)
			}
			if wantErr != nil {
				break
			}
			if ty != want.Type {
				t.Fatalf("frame %d: type %s vs reference %s", i, ty, want.Type)
			}
			if !bytes.Equal(b.Bytes(), want.Payload) {
				t.Fatalf("frame %d: payload diverges (%d vs %d bytes)", i, b.Len(), len(want.Payload))
			}
			b.Release()
		}
		st := pool.Stats()
		if st.Live != 0 {
			t.Fatalf("pool leak: %d live buffers after input %x", st.Live, data)
		}
		if st.DoubleReleases != 0 {
			t.Fatalf("%d double-releases after input %x", st.DoubleReleases, data)
		}
	})
}
