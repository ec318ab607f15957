package wire

import (
	"bytes"
	"testing"
)

func TestPoolGetRelease(t *testing.T) {
	p := NewPool()
	sizes := []int{0, 1, 63, 64, 65, 4096, 64 << 10, MaxFrameSize}
	for _, n := range sizes {
		b := p.Get(n)
		if b.Len() != n || len(b.Bytes()) != n {
			t.Fatalf("Get(%d): Len = %d, Bytes = %d", n, b.Len(), len(b.Bytes()))
		}
		b.Release()
	}
	st := p.Stats()
	if st.Live != 0 {
		t.Errorf("Live = %d after all releases", st.Live)
	}
	if st.Gets != uint64(len(sizes)) || st.Releases != uint64(len(sizes)) {
		t.Errorf("stats = %+v", st)
	}
	if st.DoubleReleases != 0 {
		t.Errorf("DoubleReleases = %d", st.DoubleReleases)
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool()
	b := p.Get(1024)
	b.Bytes()[0] = 7
	b.Release()
	c := p.Get(900) // same class (1024)
	st := p.Stats()
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1 (buffer not recycled)", st.Hits)
	}
	if c.Len() != 900 {
		t.Errorf("recycled Len = %d", c.Len())
	}
	c.Release()
}

func TestPoolRetain(t *testing.T) {
	p := NewPool()
	b := p.Get(128)
	b.Retain()
	b.Release()
	if p.Live() != 1 {
		t.Fatalf("Live = %d with one reference outstanding", p.Live())
	}
	b.Release()
	if p.Live() != 0 {
		t.Fatalf("Live = %d after final release", p.Live())
	}
	st := p.Stats()
	if st.Retains != 1 || st.Releases != 2 || st.DoubleReleases != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPoolDoubleRelease(t *testing.T) {
	p := NewPool()
	b := p.Get(128)
	b.Release()
	b.Release() // bug: must be counted, never recycle the buffer twice
	st := p.Stats()
	if st.DoubleReleases != 1 {
		t.Errorf("DoubleReleases = %d, want 1", st.DoubleReleases)
	}
	if st.Live != 0 {
		t.Errorf("Live = %d, want 0", st.Live)
	}
	// The double-released buffer must not appear in the free list a
	// second time: two gets must yield two distinct buffers.
	x, y := p.Get(128), p.Get(128)
	if x == y {
		t.Fatal("pool handed out the same buffer twice")
	}
	x.Release()
	y.Release()
}

func TestPoolLeakAccounting(t *testing.T) {
	p := NewPool()
	bufs := make([]*Buf, 5)
	for i := range bufs {
		bufs[i] = p.Get(256)
	}
	for _, b := range bufs[:4] {
		b.Release()
	}
	if p.Live() != 1 {
		t.Fatalf("Live = %d, want 1 (the leaked buffer)", p.Live())
	}
	bufs[4].Release()
	if p.Live() != 0 {
		t.Fatalf("Live = %d after plugging the leak", p.Live())
	}
}

func TestPoolOversized(t *testing.T) {
	p := NewPool()
	n := (16 << 20) + 1 // past the largest class: heap-served
	b := p.Get(n)
	if b.Len() != n {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Release()
	st := p.Stats()
	if st.Discards != 1 {
		t.Errorf("Discards = %d, want 1 (oversized never pooled)", st.Discards)
	}
	if st.Live != 0 {
		t.Errorf("Live = %d", st.Live)
	}
}

func TestPoolClassBoundaries(t *testing.T) {
	cases := []struct{ n, class, size int }{
		{0, 0, 64}, {1, 0, 64}, {64, 0, 64}, {65, 1, 68}, {68, 1, 68}, {69, 2, 128}, {128, 2, 128}, {129, 3, 136},
		{128 << 10, 22, 128 << 10}, {128<<10 + 16, 23, 136 << 10}, {136<<10 + 1, 24, 256 << 10},
		{16 << 20, numClasses - 1, 16 << 20}, {(16 << 20) + 1, -1, 0},
	}
	for _, c := range cases {
		got := classFor(c.n)
		if got != c.class || (got >= 0 && classSize(got) != c.size) {
			t.Errorf("classFor(%d) = %d, want %d (%d bytes)", c.n, got, c.class, c.size)
		}
	}
	// Every size lands in the smallest class that holds it, and a
	// message — a power-of-two payload behind its 16-byte header —
	// within a sixteenth of its length.
	for n := 0; n <= 1<<13; n++ {
		c := classFor(n)
		if classSize(c) < n || (c > 0 && classSize(c-1) >= n) {
			t.Fatalf("classFor(%d) = %d (%d bytes), the class below holds %d", n, c, classSize(c), classSize(c-1))
		}
	}
	for shift := 10; shift < maxClassShift; shift++ {
		msg := 1<<shift + 16
		if size := classSize(classFor(msg)); size > msg+msg/16 {
			t.Errorf("a %d-byte message is served from %d bytes", msg, size)
		}
	}
}

// TestPoolParksAReadBurst: a manifest fetch at the default plan
// releases its 128 KiB + 16 B DATA frames in bursts as chunks complete;
// the pool must park a burst of poolWindowSlots of them, so the next
// one allocates nothing. Above the DATA-frame classes the byte bound
// still rules.
func TestPoolParksAReadBurst(t *testing.T) {
	const frame = 128<<10 + 16
	p := NewPool()
	bufs := make([]*Buf, poolWindowSlots)
	for round := 0; round < 2; round++ {
		for i := range bufs {
			bufs[i] = p.Get(frame)
		}
		for _, b := range bufs {
			b.Release()
		}
	}
	if st := p.Stats(); st.Misses != poolWindowSlots || st.Hits != poolWindowSlots || st.Discards != 0 || st.Live != 0 {
		t.Fatalf("two bursts of %d frames: %+v, want all misses then all hits, no discards", poolWindowSlots, st)
	}
	for _, c := range []struct{ size, slots int }{
		{64, 1024}, {4 << 10, 1024}, {32 << 10, 128}, {64 << 10, 64}, {128 << 10, 64}, {136 << 10, 64}, {256 << 10, 64},
		{512 << 10, 8}, {1 << 20, 4}, {16 << 20, 4},
	} {
		if got := classSlots(c.size); got != c.slots {
			t.Errorf("classSlots(%d) = %d, want %d", c.size, got, c.slots)
		}
	}
}

// TestPooledWriteFrameByteIdentity pins that FrameWriter.WriteFrame
// produces exactly the historical wire bytes, spelled out by hand.
func TestPooledWriteFrameByteIdentity(t *testing.T) {
	payload := []byte("the quick brown fox")
	var got bytes.Buffer
	if err := NewFrameWriter(&got).WriteFrame(TypeData, payload); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{byte(TypeData), 0, 0, 0, byte(len(payload))}, payload...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wire bytes = %x, want %x", got.Bytes(), want)
	}
}
