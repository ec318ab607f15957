package gf

// GF(2^32) region kernel. A product c*s is linear in s, so everything
// here starts from the 32 basis products c*x^i.
//
// The portable arm splits c*s over the four bytes of a symbol: c*s =
// t[0][s&0xFF] ^ t[1][s>>8&0xFF] ^ t[2][s>>16&0xFF] ^ t[3][s>>24]. The
// four 256-entry tables (4 KiB, L1-resident) are built from the basis by
// XOR-doubling — about 1 k XORs, no field multiply per entry — and
// applied two symbols per 64-bit load.
//
// The vector arms (amd64 with GFNI, kernel32_amd64.s) view the basis as
// a 32x32 bit matrix cut into sixteen 8x8 blocks and apply them with
// VGF2P8AFFINEQB, 16 symbols per AVX2 step or 32 per AVX-512 step; both
// read the same 128 bytes of per-constant state instead of 4 KiB.

import (
	"encoding/binary"
	"math/bits"
)

// basis32 returns c*x^i for i = 0..31.
func basis32(c uint32) (basis [32]uint32) {
	a := c
	for i := range basis {
		basis[i] = a
		a = a<<1 ^ poly32&-(a>>31) // multiply by x, reduce if x^32 appeared
	}
	return basis
}

// mul32 is the per-constant state of the kernel: the affine blocks when
// the vector arm is available, the byte-window tables otherwise.
type mul32 struct {
	c   uint32
	aff affine32
	tab mul32Tables
}

func (m *mul32) init(c uint32) {
	m.c = c
	basis := basis32(c)
	if haveGFNI {
		m.aff.init(&basis)
	} else {
		m.tab.init(&basis)
	}
}

// mulAdd computes dst[i] ^= c*src[i] over whole 32-bit symbols; bytes
// past the last whole symbol are left untouched.
func (m *mul32) mulAdd(dst, src []byte) {
	if !haveGFNI {
		m.tab.mulAdd(dst, src)
		return
	}
	n := mulAddVec32(&m.aff, dst, src)
	// Under 16 symbols remain: not worth a table.
	for ; n+4 <= len(src); n += 4 {
		p := gf32Mul(m.c, binary.LittleEndian.Uint32(src[n:]))
		binary.LittleEndian.PutUint32(dst[n:], binary.LittleEndian.Uint32(dst[n:])^p)
	}
}

// mul computes dst[i] = c*dst[i] in place over whole 32-bit symbols.
func (m *mul32) mul(dst []byte) {
	if !haveGFNI {
		m.tab.mul(dst)
		return
	}
	n := mulVec32(&m.aff, dst)
	for ; n+4 <= len(dst); n += 4 {
		binary.LittleEndian.PutUint32(dst[n:], gf32Mul(m.c, binary.LittleEndian.Uint32(dst[n:])))
	}
}

// affine32 holds the sixteen 8x8 bit blocks M[i][j] of the
// multiply-by-c matrix (input byte j of a symbol to output byte i) in
// VGF2P8AFFINEQB's operand format, paired the way the vector loop
// consumes them: with data qwords [B0, B1] and [B2, B3] (B j = byte j
// of eight symbols) and their swaps, output qwords [O0, O1] and
// [O2, O3] take
//
//	k[0] = {M00, M11} on [B0,B1]   k[1] = {M01, M10} on [B1,B0]
//	k[2] = {M02, M13} on [B2,B3]   k[3] = {M03, M12} on [B3,B2]
//	k[4] = {M20, M31} on [B0,B1]   k[5] = {M21, M30} on [B1,B0]
//	k[6] = {M22, M33} on [B2,B3]   k[7] = {M23, M32} on [B3,B2]
type affine32 [8][2]uint64

func (k *affine32) init(basis *[32]uint32) {
	block := func(i, j int) uint64 {
		// Byte u of x = output byte i of c*x^(8j+u): bit b of that byte
		// says whether input bit u of byte j feeds output bit b of byte i.
		var x uint64
		for u := 0; u < 8; u++ {
			x |= uint64(basis[8*j+u]>>(8*i)&0xFF) << (8 * u)
		}
		// The instruction wants one byte per output bit holding its input
		// mask, output bit 0 in the top byte: transpose, then reverse.
		return bits.ReverseBytes64(transpose8x8(x))
	}
	for h := 0; h < 2; h++ { // output half: [O0,O1] then [O2,O3]
		i0, i1 := 2*h, 2*h+1
		k[4*h+0] = [2]uint64{block(i0, 0), block(i1, 1)}
		k[4*h+1] = [2]uint64{block(i0, 1), block(i1, 0)}
		k[4*h+2] = [2]uint64{block(i0, 2), block(i1, 3)}
		k[4*h+3] = [2]uint64{block(i0, 3), block(i1, 2)}
	}
}

// transpose8x8 transposes an 8x8 bit matrix stored one row per byte.
func transpose8x8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// mul32Tables holds t[b][v] = c * (v << 8b) for one constant c.
type mul32Tables [4][256]uint32

func (t *mul32Tables) init(basis *[32]uint32) {
	for b := range t {
		row := &t[b]
		row[0] = 0
		for j := 0; j < 8; j++ {
			x := basis[8*b+j]
			n := 1 << j
			for v := 0; v < n; v++ {
				row[n+v] = row[v] ^ x
			}
		}
	}
}

// mulWord returns the products of the two symbols packed in s.
func (t *mul32Tables) mulWord(s uint64) uint64 {
	lo := t[0][s&0xFF] ^ t[1][s>>8&0xFF] ^ t[2][s>>16&0xFF] ^ t[3][s>>24&0xFF]
	hi := t[0][s>>32&0xFF] ^ t[1][s>>40&0xFF] ^ t[2][s>>48&0xFF] ^ t[3][s>>56]
	return uint64(lo) | uint64(hi)<<32
}

func (t *mul32Tables) mulSym(s uint32) uint32 {
	return t[0][s&0xFF] ^ t[1][s>>8&0xFF] ^ t[2][s>>16&0xFF] ^ t[3][s>>24]
}

// mulAdd computes dst[i] ^= c*src[i] over whole 32-bit symbols; bytes
// past the last whole symbol are left untouched.
func (t *mul32Tables) mulAdd(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 8 && len(dst) >= 8 { // both tests: lets the compiler drop every bounds check
		if s := binary.LittleEndian.Uint64(src); s != 0 {
			binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^t.mulWord(s))
		}
		src, dst = src[8:], dst[8:]
	}
	if len(src) >= 4 && len(dst) >= 4 {
		s := binary.LittleEndian.Uint32(src)
		binary.LittleEndian.PutUint32(dst, binary.LittleEndian.Uint32(dst)^t.mulSym(s))
	}
}

// mul computes dst[i] = c*dst[i] in place over whole 32-bit symbols.
func (t *mul32Tables) mul(dst []byte) {
	for len(dst) >= 8 {
		if s := binary.LittleEndian.Uint64(dst); s != 0 {
			binary.LittleEndian.PutUint64(dst, t.mulWord(s))
		}
		dst = dst[8:]
	}
	if len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, t.mulSym(binary.LittleEndian.Uint32(dst)))
	}
}
