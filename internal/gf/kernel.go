package gf

// Region kernels: bulk mul-accumulate over packed symbol vectors using
// per-constant split product tables, processed a 64-bit word at a time.
//
// The table layout follows the classic split-table construction: a
// product c*s over GF(2^p) is linear in s, so it decomposes over any
// split of s's bits. For p=8 a low/high *nibble* pair of 16-entry
// tables covers every byte (c*s = lo[s&0xF] ^ hi[s>>4]); for p=16 a
// low/high *byte* pair of 256-entry tables covers every symbol; for
// p=32 four byte-window tables do (kernel32.go). The one-shot entry
// points (MulAddSlice, MulSlice, MulAddWords, MulWords) build the
// tables on the stack per call; MulTable amortizes the
// build across many regions — the decode pipeline initializes one table
// per elimination factor and reuses it for every payload segment.
//
// All kernels are exact: they produce bit-identical results to the
// per-symbol GetSym/SetSym reference path.

import "encoding/binary"

// HasAVX2 reports whether this CPU and OS run AVX2 code — the probe the
// vector kernels here dispatch on, exported so a sibling package with a
// vector arm of its own (rlnc's digest lanes) asks the same question
// once. Always false off amd64.
func HasAVX2() bool { return haveVecP8 }

// HasAVX512 reports whether the GF(2^32) kernel takes its AVX-512 arm:
// AVX-512 F, BW and VL with opmask and zmm state enabled, plus GFNI. It
// is exported for the same reason as HasAVX2. Always false off amd64.
func HasAVX512() bool { return haveAVX512 }

// kernelTables returns f as a log/antilog table field (p <= 16), whose
// exp/log rows the split-table builders read.
func kernelTables(f Field) (*tableField, bool) {
	tf, ok := f.(*tableField)
	return tf, ok
}

// MulAddSlice computes dst[i] ^= c*src[i] over packed symbol vectors,
// word-at-a-time with per-constant split tables. dst and src must have
// equal length and must not overlap. f must come from New.
func MulAddSlice(f Field, dst, src []byte, c uint32) {
	c &= f.Mask()
	if len(dst) != len(src) {
		panic("gf: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		AddSlice(dst, src)
		return
	}
	if _, ok := f.(gf32Field); ok {
		var m mul32
		m.init(c)
		m.mulAdd(dst, src)
		return
	}
	tf := f.(*tableField)
	switch tf.bits {
	case Bits4, Bits8:
		var lo, hi [16]byte
		tf.nibbleSplitInto(&lo, &hi, c)
		if haveVecP8 {
			n := mulAddVecP8(&lo, &hi, dst, src)
			mulAddNibbleTail(&lo, &hi, dst[n:], src[n:])
			return
		}
		mulAddNibbleSplit(&lo, &hi, dst, src)
	case Bits16:
		var lo, hi [256]uint16
		tf.byteTablesInto(&lo, &hi, c)
		mulAddByteSplit(&lo, &hi, dst, src)
	}
}

// MulSlice computes dst[i] = c*dst[i] in place using the same
// split-table word kernels. f must come from New.
func MulSlice(f Field, dst []byte, c uint32) {
	c &= f.Mask()
	if c == 1 {
		return
	}
	if c == 0 {
		clear(dst)
		return
	}
	if _, ok := f.(gf32Field); ok {
		var m mul32
		m.init(c)
		m.mul(dst)
		return
	}
	tf := f.(*tableField)
	switch tf.bits {
	case Bits4, Bits8:
		var lo, hi [16]byte
		tf.nibbleSplitInto(&lo, &hi, c)
		mulNibbleInPlace(&lo, &hi, dst)
	case Bits16:
		var lo, hi [256]uint16
		tf.byteTablesInto(&lo, &hi, c)
		mulByteSplit(&lo, &hi, dst)
	}
}

// MulAddWords computes dst[i] ^= c*src[i] over unpacked coefficient
// rows (one symbol per uint32), replacing per-element Mul loops in
// rlnc's row elimination. Values must already be reduced to the field
// mask.
func MulAddWords(f Field, dst, src []uint32, c uint32) {
	c &= f.Mask()
	if len(dst) != len(src) {
		panic("gf: MulAddWords length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	tf, ok := kernelTables(f)
	if !ok {
		for i, s := range src {
			if s != 0 {
				dst[i] ^= f.Mul(s, c)
			}
		}
		return
	}
	switch tf.bits {
	case Bits4:
		var nib [16]uint32
		tf.nibbleRowInto(&nib, c)
		for i, s := range src {
			dst[i] ^= nib[s&0xF]
		}
	case Bits8:
		var lo, hi [16]byte
		tf.nibbleTablesInto(&lo, &hi, c)
		for i, s := range src {
			dst[i] ^= uint32(lo[s&0xF] ^ hi[(s>>4)&0xF])
		}
	default: // Bits16
		var lo, hi [256]uint16
		tf.byteTablesInto(&lo, &hi, c)
		for i, s := range src {
			dst[i] ^= uint32(lo[s&0xFF] ^ hi[(s>>8)&0xFF])
		}
	}
}

// MulWords computes dst[i] = c*dst[i] over unpacked coefficient rows.
func MulWords(f Field, dst []uint32, c uint32) {
	c &= f.Mask()
	if c == 1 {
		return
	}
	if c == 0 {
		clear(dst)
		return
	}
	tf, ok := kernelTables(f)
	if !ok {
		for i, s := range dst {
			if s != 0 {
				dst[i] = f.Mul(s, c)
			}
		}
		return
	}
	switch tf.bits {
	case Bits4:
		var nib [16]uint32
		tf.nibbleRowInto(&nib, c)
		for i, s := range dst {
			dst[i] = nib[s&0xF]
		}
	case Bits8:
		var lo, hi [16]byte
		tf.nibbleTablesInto(&lo, &hi, c)
		for i, s := range dst {
			dst[i] = uint32(lo[s&0xF] ^ hi[(s>>4)&0xF])
		}
	default: // Bits16
		var lo, hi [256]uint16
		tf.byteTablesInto(&lo, &hi, c)
		for i, s := range dst {
			dst[i] = uint32(lo[s&0xFF] ^ hi[(s>>8)&0xFF])
		}
	}
}

// --- table builders (on tableField so they can reach exp/log) ---

// nibbleTablesInto fills the low/high nibble split tables for p=8:
// c*b == lo[b&0xF] ^ hi[b>>4] for every byte b.
func (f *tableField) nibbleTablesInto(lo, hi *[16]byte, c uint32) {
	lc := f.log[c]
	for s := uint32(1); s < 16; s++ {
		lo[s] = byte(f.exp[lc+f.log[s]])
		hi[s] = byte(f.exp[lc+f.log[s<<4]])
	}
}

// byteTablesInto fills the low/high byte split tables for p=16:
// c*s == lo[s&0xFF] ^ hi[s>>8] for every 16-bit symbol s.
func (f *tableField) byteTablesInto(lo, hi *[256]uint16, c uint32) {
	lc := f.log[c]
	for s := uint32(1); s < 256; s++ {
		lo[s] = uint16(f.exp[lc+f.log[s]])
		hi[s] = uint16(f.exp[lc+f.log[s<<8]])
	}
}

// nibbleRowInto fills the 16-entry product row for p=4 symbols.
func (f *tableField) nibbleRowInto(nib *[16]uint32, c uint32) {
	lc := f.log[c]
	for s := uint32(1); s < 16; s++ {
		nib[s] = f.exp[lc+f.log[s]]
	}
}

// pairNibbleTablesInto fills split tables for p=4 packed pairs so the
// p=8 nibble kernels apply unchanged: lo maps the low symbol of a
// packed byte to its product, hi maps the high symbol to its product
// shifted back into the high nibble, and c*b == lo[b&0xF] ^ hi[b>>4].
func (f *tableField) pairNibbleTablesInto(lo, hi *[16]byte, c uint32) {
	lc := f.log[c]
	for s := uint32(1); s < 16; s++ {
		p := byte(f.exp[lc+f.log[s]])
		lo[s] = p
		hi[s] = p << 4
	}
}

// nibbleSplitInto fills the nibble split tables of a byte-packed width
// (p=4 pairs or p=8), so one kernel serves both.
func (f *tableField) nibbleSplitInto(lo, hi *[16]byte, c uint32) {
	if f.bits == Bits4 {
		f.pairNibbleTablesInto(lo, hi, c)
	} else {
		f.nibbleTablesInto(lo, hi, c)
	}
}

func expandNibbleRow(row *[256]byte, lo, hi *[16]byte) {
	for b := 0; b < 256; b++ {
		row[b] = lo[b&0xF] ^ hi[b>>4]
	}
}

// mulAddNibbleTail finishes the sub-vector remainder byte-wise.
func mulAddNibbleTail(lo, hi *[16]byte, dst, src []byte) {
	for i := range src {
		b := src[i]
		dst[i] ^= lo[b&0xF] ^ hi[b>>4]
	}
}

// mulNibbleInPlace scales a byte-packed vector (p=4 pairs or p=8) in
// place through split tables: vector bulk when available, 256-entry
// row otherwise.
func mulNibbleInPlace(lo, hi *[16]byte, dst []byte) {
	if haveVecP8 {
		n := mulVecP8(lo, hi, dst)
		for i := n; i < len(dst); i++ {
			b := dst[i]
			dst[i] = lo[b&0xF] ^ hi[b>>4]
		}
		return
	}
	var row [256]byte
	expandNibbleRow(&row, lo, hi)
	mulBytes(&row, dst)
}

// --- word kernels ---

// mulAddNibbleSplit is the scalar p=4/p=8 MulAddSlice core: 16 nibble
// lookups per 64-bit word, no 256-entry expansion (the build cost would
// dominate small regions).
func mulAddNibbleSplit(lo, hi *[16]byte, dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		if s == 0 {
			continue
		}
		p := uint64(lo[s&0xF]^hi[s>>4&0xF]) |
			uint64(lo[s>>8&0xF]^hi[s>>12&0xF])<<8 |
			uint64(lo[s>>16&0xF]^hi[s>>20&0xF])<<16 |
			uint64(lo[s>>24&0xF]^hi[s>>28&0xF])<<24 |
			uint64(lo[s>>32&0xF]^hi[s>>36&0xF])<<32 |
			uint64(lo[s>>40&0xF]^hi[s>>44&0xF])<<40 |
			uint64(lo[s>>48&0xF]^hi[s>>52&0xF])<<48 |
			uint64(lo[s>>56&0xF]^hi[s>>60])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i < len(src); i++ {
		b := src[i]
		dst[i] ^= lo[b&0xF] ^ hi[b>>4]
	}
}

// mulAddByteSplit is the p=16 MulAddSlice core: 8 byte-table lookups
// per 64-bit word (4 symbols).
func mulAddByteSplit(lo, hi *[256]uint16, dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		if s == 0 {
			continue
		}
		p := uint64(lo[s&0xFF]^hi[s>>8&0xFF]) |
			uint64(lo[s>>16&0xFF]^hi[s>>24&0xFF])<<16 |
			uint64(lo[s>>32&0xFF]^hi[s>>40&0xFF])<<32 |
			uint64(lo[s>>48&0xFF]^hi[s>>56])<<48
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i+1 < len(src); i += 2 {
		s := uint32(src[i]) | uint32(src[i+1])<<8
		if s == 0 {
			continue
		}
		p := lo[s&0xFF] ^ hi[s>>8]
		dst[i] ^= byte(p)
		dst[i+1] ^= byte(p >> 8)
	}
}

// mulByteSplit scales a p=16 vector in place.
func mulByteSplit(lo, hi *[256]uint16, dst []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(dst[i:])
		p := uint64(lo[s&0xFF]^hi[s>>8&0xFF]) |
			uint64(lo[s>>16&0xFF]^hi[s>>24&0xFF])<<16 |
			uint64(lo[s>>32&0xFF]^hi[s>>40&0xFF])<<32 |
			uint64(lo[s>>48&0xFF]^hi[s>>56])<<48
		binary.LittleEndian.PutUint64(dst[i:], p)
	}
	for i := n; i+1 < len(dst); i += 2 {
		s := uint32(dst[i]) | uint32(dst[i+1])<<8
		p := lo[s&0xFF] ^ hi[s>>8]
		dst[i] = byte(p)
		dst[i+1] = byte(p >> 8)
	}
}

// mulAddBytes applies a full 256-entry product row: dst[i] ^= row[src[i]],
// 8 lookups per word. MulTable's scalar p=4/p=8 path, where the row is
// built once and reused.
func mulAddBytes(row *[256]byte, dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		if s == 0 {
			continue
		}
		p := uint64(row[s&0xFF]) |
			uint64(row[s>>8&0xFF])<<8 |
			uint64(row[s>>16&0xFF])<<16 |
			uint64(row[s>>24&0xFF])<<24 |
			uint64(row[s>>32&0xFF])<<32 |
			uint64(row[s>>40&0xFF])<<40 |
			uint64(row[s>>48&0xFF])<<48 |
			uint64(row[s>>56])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// mulBytes scales in place through a 256-entry product row.
func mulBytes(row *[256]byte, dst []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(dst[i:])
		p := uint64(row[s&0xFF]) |
			uint64(row[s>>8&0xFF])<<8 |
			uint64(row[s>>16&0xFF])<<16 |
			uint64(row[s>>24&0xFF])<<24 |
			uint64(row[s>>32&0xFF])<<32 |
			uint64(row[s>>40&0xFF])<<40 |
			uint64(row[s>>48&0xFF])<<48 |
			uint64(row[s>>56])<<56
		binary.LittleEndian.PutUint64(dst[i:], p)
	}
	for i := n; i < len(dst); i++ {
		dst[i] = row[dst[i]]
	}
}

// MulTable is a reusable per-constant product table. Init builds the
// split tables once; MulAdd/Mul then run the word kernels with zero
// per-call setup. The zero value is a table for c=0 (MulAdd is a
// no-op). A MulTable is plain data: value assignment copies it, and it
// is safe for concurrent *readers* after Init returns.
type MulTable struct {
	bits uint
	c    uint32

	lo8  [16]byte    // p=4/p=8 low-nibble split (PSHUFB mask on amd64)
	hi8  [16]byte    // p=4/p=8 high-nibble split
	row8 [256]byte   // p=4/p=8 expanded byte row for the scalar path
	lo16 [256]uint16 // p=16 low-byte split
	hi16 [256]uint16 // p=16 high-byte split
	m32  mul32       // p=32 affine blocks or byte-window tables
}

// Init (re)builds the table for constant c over f, which must come
// from New.
func (t *MulTable) Init(f Field, c uint32) {
	c &= f.Mask()
	t.c = c
	t.bits = f.Bits()
	if c <= 1 {
		return // MulAdd and Mul never read the tables for 0 or 1
	}
	switch t.bits {
	case Bits32:
		t.m32.init(c)
	case Bits16:
		f.(*tableField).byteTablesInto(&t.lo16, &t.hi16, c)
	default:
		f.(*tableField).nibbleSplitInto(&t.lo8, &t.hi8, c)
		expandNibbleRow(&t.row8, &t.lo8, &t.hi8)
	}
}

// C returns the constant the table was built for.
func (t *MulTable) C() uint32 { return t.c }

// MulAdd computes dst[i] ^= c*src[i] using the prebuilt table.
func (t *MulTable) MulAdd(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulTable.MulAdd length mismatch")
	}
	switch {
	case t.c == 0:
	case t.c == 1:
		AddSlice(dst, src)
	case t.bits == Bits32:
		t.m32.mulAdd(dst, src)
	case t.bits == Bits16:
		mulAddByteSplit(&t.lo16, &t.hi16, dst, src)
	case haveVecP8:
		n := mulAddVecP8(&t.lo8, &t.hi8, dst, src)
		mulAddNibbleTail(&t.lo8, &t.hi8, dst[n:], src[n:])
	default:
		mulAddBytes(&t.row8, dst, src)
	}
}

// Mul scales dst in place by the table's constant.
func (t *MulTable) Mul(dst []byte) {
	switch {
	case t.c == 1:
	case t.c == 0:
		clear(dst)
	case t.bits == Bits32:
		t.m32.mul(dst)
	case t.bits == Bits16:
		mulByteSplit(&t.lo16, &t.hi16, dst)
	case haveVecP8:
		n := mulVecP8(&t.lo8, &t.hi8, dst)
		for i := n; i < len(dst); i++ {
			dst[i] = t.row8[dst[i]]
		}
	default:
		mulBytes(&t.row8, dst)
	}
}
