package wire

// Property-based robustness tests: every typed message and every frame
// round-trips for arbitrary field values, and the unmarshalers never
// panic on arbitrary byte soup.

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGetRoundTripProperty(t *testing.T) {
	prop := func(fileID uint64, limit uint32) bool {
		g := Get{FileID: fileID, Limit: limit}
		var got Get
		return got.Unmarshal(g.Marshal()) == nil && got == g
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStopRoundTripProperty(t *testing.T) {
	prop := func(fileID uint64) bool {
		s := Stop{FileID: fileID}
		var got Stop
		return got.Unmarshal(s.Marshal()) == nil && got == s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestErrorMsgRoundTripProperty(t *testing.T) {
	prop := func(code uint16, reason string) bool {
		e := ErrorMsg{Code: code, Reason: reason}
		var got ErrorMsg
		return got.Unmarshal(e.Marshal()) == nil && got == e
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(ty uint8, payload []byte) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(Type(ty), payload); err != nil {
			return false
		}
		got, b, err := NewFrameReader(&buf).Next()
		if err != nil {
			return false
		}
		defer b.Release()
		return got == Type(ty) && bytes.Equal(b.Bytes(), payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalersNeverPanicOnGarbage(t *testing.T) {
	prop := func(garbage []byte) bool {
		var (
			h  Hello
			c  Challenge
			a  AuthResponse
			g  Get
			s  Stop
			fb Feedback
			e  ErrorMsg
		)
		// Only absence of panics matters.
		_ = h.Unmarshal(garbage)
		_ = c.Unmarshal(garbage)
		_ = a.Unmarshal(garbage)
		_ = g.Unmarshal(garbage)
		_ = s.Unmarshal(garbage)
		_ = fb.Unmarshal(garbage)
		_ = e.Unmarshal(garbage)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzReadFrame closes the loop between the two halves of the framing:
// every frame FrameReader parses out of arbitrary bytes, written back
// through FrameWriter, must reproduce exactly the bytes it was parsed
// from.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, TypeData, []byte("seed")))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := NewPool()
		fr := NewFrameReaderPool(bytes.NewReader(data), pool)
		var out bytes.Buffer
		fw := &FrameWriter{w: &out, pool: pool}
		for {
			ty, b, err := fr.Next()
			if err != nil {
				break
			}
			if err := fw.QueueBuf(ty, b); err != nil {
				t.Fatalf("reserialize: %v", err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-serialized frames %x are not a prefix of the input %x", out.Bytes(), data)
		}
		if st := pool.Stats(); st.Live != 0 || st.DoubleReleases != 0 {
			t.Fatalf("pool: %d live, %d double-released", st.Live, st.DoubleReleases)
		}
	})
}
