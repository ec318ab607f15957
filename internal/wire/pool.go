package wire

// Pooled, reference-counted frame buffers — the allocation story of the
// zero-copy hot path (DESIGN.md §12). A FrameReader hands every frame
// payload out in a *Buf drawn from a Pool; ownership transfers with the
// value, and whoever holds the last reference returns the memory to the
// pool with Release. The pool keeps per-size-class free lists so a
// steady-state connection reads and writes frames without touching the
// allocator at all, and it counts every get/retain/release so tests can
// assert two invariants at teardown: nothing leaked (Live == 0) and
// nothing was released twice (DoubleReleases == 0).

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Size classes are the powers of two from 64 B to 16 MiB and, between
// each and the next, a companion one sixteenth above the lower; a
// request is served from the smallest class that fits. The companions
// are for DATA frames: a message is a power-of-two payload behind a
// 16-byte header, which a ladder of powers of two alone would serve
// from a buffer twice its size. The largest class must cover a full
// coalesced frame (5-byte header + MaxFrameSize payload).
const (
	minClassShift = 6  // 64 B
	maxClassShift = 24 // 16 MiB > 5 + MaxFrameSize
	numClasses    = 2*(maxClassShift-minClassShift) + 1

	// poolClassRetain bounds how many bytes each class keeps parked in
	// its free list; beyond it, released buffers fall to the GC (and
	// are counted as Discards, not leaks).
	poolClassRetain = 4 << 20

	// poolWindowSlots is the floor on that bound, in buffers, for the
	// classes DATA frames land in (up to poolWindowMaxSize). One
	// manifest fetch has at most 4 chunks × 4 peers × k = 8 messages =
	// 128 frames in flight and releases them in a burst as each chunk
	// reaches rank k; STOP cuts most streams short, so what is live at
	// once stays under half of that. Measured on a warm 16-chunk,
	// 4-peer FetchFile at the default plan, whose 128 KiB + 16 B
	// message is served from the 136 KiB class: a list of 16 allocates
	// — and zeroes — on ≈ 13 % of all gets, 32 (about that class's byte
	// bound alone) on 4–8 %, 64 on 0.5 %, 128 on none. A parked buffer
	// costs about twice its size in peak RSS under the default GC
	// target, so the last half percent is not worth 8.5 MiB more.
	poolWindowSlots   = 64
	poolWindowMaxSize = 256 << 10
)

// Buf is one pooled frame buffer. The bytes are valid until the last
// reference is released; Release must be called exactly once per
// reference (the initial get counts as one). Buf values must not be
// copied.
type Buf struct {
	pool *Pool
	data []byte // class-sized backing array
	n    int    // logical length
	refs atomic.Int32
}

// Bytes returns the buffer's logical contents. The slice aliases pooled
// memory: it is valid only until the final Release.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Len returns the logical length.
func (b *Buf) Len() int { return b.n }

// Retain adds a reference, so the buffer survives until a matching
// extra Release.
func (b *Buf) Retain() {
	b.refs.Add(1)
	b.pool.retains.Add(1)
}

// Release drops one reference; the last one returns the buffer to its
// pool. Releasing more times than retained is accounted as a
// double-release (and the buffer is not recycled again, so the pool
// never hands the same memory out twice).
func (b *Buf) Release() {
	switch left := b.refs.Add(-1); {
	case left > 0:
		b.pool.releases.Add(1)
	case left == 0:
		b.pool.releases.Add(1)
		b.pool.live.Add(-1)
		b.pool.put(b)
	default:
		b.pool.doubleReleases.Add(1)
	}
}

// PoolStats is a point-in-time snapshot of a pool's accounting.
type PoolStats struct {
	Gets           uint64 // buffers handed out
	Hits           uint64 // gets served from a free list
	Misses         uint64 // gets that had to allocate
	Retains        uint64 // extra references taken
	Releases       uint64 // references dropped (excluding double-releases)
	Discards       uint64 // final releases dropped to the GC (full free list or oversized)
	DoubleReleases uint64 // releases past the last reference — always a bug
	Live           int64  // buffers currently outstanding (gets minus final releases)
}

// Pool is a size-classed free list of frame buffers with leak and
// double-release accounting. The zero value is not usable; construct
// with NewPool. DefaultPool serves every connection's reader and writer.
type Pool struct {
	classes [numClasses]chan *Buf

	gets           atomic.Uint64
	hits           atomic.Uint64
	misses         atomic.Uint64
	retains        atomic.Uint64
	releases       atomic.Uint64
	discards       atomic.Uint64
	doubleReleases atomic.Uint64
	live           atomic.Int64
}

// DefaultPool backs the NewFrameReader and NewFrameWriter constructors.
var DefaultPool = NewPool()

// NewPool returns an empty pool. Pools are cheap: memory is only held
// after buffers flow through them.
func NewPool() *Pool {
	p := &Pool{}
	for i := range p.classes {
		p.classes[i] = make(chan *Buf, classSlots(classSize(i)))
	}
	return p
}

// classSize is the buffer size of free list c: even lists hold the
// powers of two, odd ones their companions.
func classSize(c int) int {
	size := 1 << (minClassShift + c/2)
	if c%2 == 1 {
		size += size >> 4
	}
	return size
}

// classSlots is the free-list length of the class of size-byte buffers:
// poolClassRetain bytes' worth, but at least a read window's burst of
// the DATA-frame classes and 4 of the rest, and at most 1024.
func classSlots(size int) int {
	slots := poolClassRetain / size
	if size <= poolWindowMaxSize {
		slots = max(slots, poolWindowSlots)
	}
	return min(max(slots, 4), 1024)
}

// classFor returns the free-list index for a request of n bytes, or -1
// when n exceeds the largest class (served unpooled).
func classFor(n int) int {
	if n > 1<<maxClassShift {
		return -1
	}
	// 1<<shift is the smallest power of two that holds n.
	shift := max(bits.Len(uint(max(n, 1)-1)), minClassShift)
	c := 2 * (shift - minClassShift)
	if c > 0 && n <= classSize(c-1) {
		c--
	}
	return c
}

// Get returns a buffer with Len() == n and a single reference. n may be
// zero. Requests beyond the largest size class are served from the heap
// and dropped to the GC on release (counted, never pooled).
func (p *Pool) Get(n int) *Buf {
	if n < 0 {
		panic(fmt.Sprintf("wire: negative buffer size %d", n))
	}
	p.gets.Add(1)
	p.live.Add(1)
	class := classFor(n)
	if class >= 0 {
		select {
		case b := <-p.classes[class]:
			p.hits.Add(1)
			b.n = n
			b.refs.Store(1)
			return b
		default:
		}
	}
	p.misses.Add(1)
	size := n
	if class >= 0 {
		size = classSize(class)
	}
	b := &Buf{pool: p, data: make([]byte, size), n: n}
	b.refs.Store(1)
	return b
}

// put parks a fully-released buffer for reuse, or lets it fall to the
// GC when its class list is full (or it was oversized).
func (p *Pool) put(b *Buf) {
	class := classFor(len(b.data))
	if class < 0 || len(b.data) != classSize(class) {
		p.discards.Add(1)
		return
	}
	select {
	case p.classes[class] <- b:
	default:
		p.discards.Add(1)
	}
}

// Stats snapshots the pool's accounting counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:           p.gets.Load(),
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		Retains:        p.retains.Load(),
		Releases:       p.releases.Load(),
		Discards:       p.discards.Load(),
		DoubleReleases: p.doubleReleases.Load(),
		Live:           p.live.Load(),
	}
}

// Live returns the number of buffers currently outstanding.
func (p *Pool) Live() int64 { return p.live.Load() }
