package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestGetDeadlinePriorityRoundTrip pins the dual encoding of Get: the
// legacy 12-byte form when neither deadline nor priority is set, the
// extended 17-byte form otherwise, and both accepted by Unmarshal.
func TestGetDeadlinePriorityRoundTrip(t *testing.T) {
	cases := []Get{
		{FileID: 42, Limit: 7},
		{FileID: 42, Limit: 7, DeadlineMillis: 1500},
		{FileID: 42, Limit: 7, Priority: 9},
		{FileID: 1<<63 + 5, Limit: 0, DeadlineMillis: 1<<32 - 1, Priority: 255},
	}
	for _, g := range cases {
		b := g.Marshal()
		wantLen := 12
		if g.DeadlineMillis != 0 || g.Priority != 0 {
			wantLen = 17
		}
		if len(b) != wantLen {
			t.Fatalf("Get%+v marshaled to %d bytes, want %d", g, len(b), wantLen)
		}
		var got Get
		if err := got.Unmarshal(b); err != nil {
			t.Fatalf("Unmarshal(%x): %v", b, err)
		}
		if got != g {
			t.Fatalf("round trip: got %+v, want %+v", got, g)
		}
	}
}

// TestGetUnmarshalStaleFields pins that parsing a legacy 12-byte get
// into a reused struct clears any previous deadline/priority values.
func TestGetUnmarshalStaleFields(t *testing.T) {
	g := Get{DeadlineMillis: 99, Priority: 3}
	legacy := (&Get{FileID: 1, Limit: 2}).Marshal()
	if err := g.Unmarshal(legacy); err != nil {
		t.Fatal(err)
	}
	if g.DeadlineMillis != 0 || g.Priority != 0 {
		t.Fatalf("stale extension fields survived legacy parse: %+v", g)
	}
}

func TestGetUnmarshalRejectsOddSizes(t *testing.T) {
	for _, n := range []int{0, 11, 13, 16, 18} {
		var g Get
		if err := g.Unmarshal(make([]byte, n)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("Unmarshal of %d bytes: got %v, want ErrBadFrame", n, err)
		}
	}
}

func TestBusyRoundTrip(t *testing.T) {
	in := Busy{FileID: 7, Code: CodeBusy, RetryAfterMillis: 250, Reason: "shed: low standing"}
	var out Busy
	if err := out.Unmarshal(in.Marshal()); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// Empty reason is legal (the code alone is actionable).
	in = Busy{FileID: 0, Code: CodeExpired}
	if err := out.Unmarshal(in.Marshal()); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestBusyUnmarshalRejectsShort(t *testing.T) {
	var b Busy
	if err := b.Unmarshal(make([]byte, 13)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short busy frame: got %v, want ErrBadFrame", err)
	}
}

// TestSendBusyReparses pins the reparse contract of a sent BUSY frame:
// whatever a FrameWriter puts on the wire must decode cleanly through
// both the reference decoder and the pooled FrameReader, yielding the
// fields the sender supplied.
func TestSendBusyReparses(t *testing.T) {
	want := Busy{FileID: 99, Code: CodeBusy, RetryAfterMillis: 500, Reason: "admission queue full"}
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(TypeBusy, want.Marshal()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	f, err := readFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeBusy {
		t.Fatalf("got frame type %s, want BUSY", f.Type)
	}
	var ref Busy
	if err := ref.Unmarshal(f.Payload); err != nil {
		t.Fatalf("reference reparse: %v", err)
	}

	pool := NewPool()
	fr := NewFrameReaderPool(bytes.NewReader(raw), pool)
	ty, b, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ty != TypeBusy {
		t.Fatalf("pooled reader got type %s, want BUSY", ty)
	}
	var pooled Busy
	if err := pooled.Unmarshal(b.Bytes()); err != nil {
		t.Fatalf("pooled reparse: %v", err)
	}
	b.Release()

	if ref != want || pooled != want {
		t.Fatalf("reparse mismatch: reference %+v, pooled %+v, want %+v", ref, pooled, want)
	}
	if st := pool.Stats(); st.Live != 0 || st.DoubleReleases != 0 {
		t.Fatalf("pool leaked: %d live, %d double releases", st.Live, st.DoubleReleases)
	}
}

func TestBusyAsError(t *testing.T) {
	err := error(&Busy{FileID: 1, Code: CodeBusy, RetryAfterMillis: 100, Reason: "x"})
	var b *Busy
	if !errors.As(err, &b) || b.RetryAfterMillis != 100 {
		t.Fatalf("errors.As failed on %v", err)
	}
}
