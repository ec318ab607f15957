//go:build ignore

// gen_digest writes digest_amd64.s, the eight-lane MD5 block kernels
// behind DigestBatch: md5Blocks8 for AVX2 and md5Blocks8VL for
// AVX-512VL. MD5's 64 steps differ only in round function, message
// word, rotate count and which register plays a/b/c/d, so the file is
// unrolled from the tables of RFC 1321 instead of being written by hand.
// Both kernels share the transpose, the w layout and the step order;
// they differ in how a step computes. AVX2 spends two or three
// operations on the round function and three on the rotate (it has no
// vector rotate). AVX-512VL does each in one, VPTERNLOGD and VPROLD, so
// the serial chain through b inside a step falls from six operations to
// four. The kernels stay eight lanes wide: every caller hands
// DigestBatch at most eight equal-length messages at a time.
//
//	go run gen_digest.go > digest_amd64.s
//
// `make gen-check` regenerates the file and compares it with the
// committed one.
package main

import (
	"bufio"
	"fmt"
	"os"
)

var out = bufio.NewWriter(os.Stdout)

func p(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }

// transpose8 loads 32 bytes from each of the eight lanes at byte offset
// off of the current block and stores word-vector j (word j of all
// eight lanes) at w[first+j]: dword unpack, qword unpack, 128-bit
// permute — the usual 8x8 transpose, 24 shuffles.
func transpose8(off, first int) {
	for l := 0; l < 8; l++ {
		p("\tVMOVDQU %d(R%d)(SI*1), Y%d", off, 8+l, l)
	}
	for i := 0; i < 4; i++ {
		p("\tVPUNPCKLDQ Y%d, Y%d, Y%d", 2*i+1, 2*i, 8+2*i)
		p("\tVPUNPCKHDQ Y%d, Y%d, Y%d", 2*i+1, 2*i, 9+2*i)
	}
	// Y8..Y15 = t0..t7; u0..u7 land in Y0..Y7.
	for h := 0; h < 2; h++ {
		t := 8 + 4*h
		p("\tVPUNPCKLQDQ Y%d, Y%d, Y%d", t+2, t, 4*h)
		p("\tVPUNPCKHQDQ Y%d, Y%d, Y%d", t+2, t, 4*h+1)
		p("\tVPUNPCKLQDQ Y%d, Y%d, Y%d", t+3, t+1, 4*h+2)
		p("\tVPUNPCKHQDQ Y%d, Y%d, Y%d", t+3, t+1, 4*h+3)
	}
	for j := 0; j < 4; j++ {
		p("\tVPERM2I128 $0x20, Y%d, Y%d, Y8", 4+j, j)
		p("\tVPERM2I128 $0x31, Y%d, Y%d, Y9", 4+j, j)
		p("\tVMOVDQU Y8, %d(CX)", 32*(first+j))
		p("\tVMOVDQU Y9, %d(CX)", 32*(first+j+4))
	}
}

// The four round functions of RFC 1321 on bitwise truth tables.
var rounds = [4]func(b, c, d uint8) uint8{
	func(b, c, d uint8) uint8 { return d ^ (b & (c ^ d)) }, // F
	func(b, c, d uint8) uint8 { return c ^ (d & (b ^ c)) }, // G
	func(b, c, d uint8) uint8 { return b ^ c ^ d },         // H
	func(b, c, d uint8) uint8 { return c ^ (b | ^d) },      // I
}

// roundAVX2 leaves round r's function of b, c, d in Y4, in its
// three-operation form (two for H); Y6 is all ones for round four's NOT.
func roundAVX2(r, b, c, d int) {
	switch r {
	case 0: // d ^ (b & (c ^ d))
		p("\tVPXOR Y%d, Y%d, Y4", d, c)
		p("\tVPAND Y%d, Y4, Y4", b)
		p("\tVPXOR Y%d, Y4, Y4", d)
	case 1: // c ^ (d & (b ^ c))
		p("\tVPXOR Y%d, Y%d, Y4", c, b)
		p("\tVPAND Y%d, Y4, Y4", d)
		p("\tVPXOR Y%d, Y4, Y4", c)
	case 2: // b ^ c ^ d
		p("\tVPXOR Y%d, Y%d, Y4", c, b)
		p("\tVPXOR Y%d, Y4, Y4", d)
	case 3: // c ^ (b | ~d)
		p("\tVPXOR Y6, Y%d, Y4", d)
		p("\tVPOR Y%d, Y4, Y4", b)
		p("\tVPXOR Y%d, Y4, Y4", c)
	}
}

// roundVL leaves round r's function of b, c, d in Y4 with one
// VPTERNLOGD, whose immediate is the function's truth table over its
// three operands (first 0xF0, second 0xCC, third 0xAA): 0xCA, 0xE4, 0x96
// and 0x39. The first operand is also the destination, so b is copied
// into Y4 first; register renaming absorbs the copy. (Copying d instead
// measured 1–5 % slower.)
func roundVL(r, b, c, d int) {
	imm := rounds[r](0xF0, 0xCC, 0xAA)
	p("\tVMOVDQA Y%d, Y4", b)
	p("\tVPTERNLOGD $0x%02X, Y%d, Y%d, Y4", imm, d, c)
}

// kernel writes one TEXT symbol: name over AVX2 or AVX-512VL steps.
func kernel(name string, vl bool) {
	p("// func %s(state *[4][8]uint32, k *[64][8]uint32, w *[16][8]uint32, p *[8]*byte, nblocks int)", name)
	if vl {
		p("// Requires AVX-512F and AVX-512VL; nblocks must be positive.")
	} else {
		p("// Requires AVX2; nblocks must be positive.")
	}
	p("TEXT ·%s(SB), NOSPLIT, $0-40", name)
	p("\tMOVQ state+0(FP), AX")
	p("\tMOVQ k+8(FP), BX")
	p("\tMOVQ w+16(FP), CX")
	p("\tMOVQ p+24(FP), DI")
	p("\tMOVQ nblocks+32(FP), DX")
	for l := 0; l < 8; l++ {
		p("\tMOVQ %d(DI), R%d", 8*l, 8+l)
	}
	p("\tXORQ SI, SI")
	p("")
	p("block:")
	transpose8(0, 0)
	transpose8(32, 8)
	p("\tVMOVDQU 0(AX), Y0")
	p("\tVMOVDQU 32(AX), Y1")
	p("\tVMOVDQU 64(AX), Y2")
	p("\tVMOVDQU 96(AX), Y3")
	if !vl {
		p("\tVPCMPEQD Y6, Y6, Y6")
	}

	shifts := [4][4]int{{7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}}
	reg := [4]int{0, 1, 2, 3} // registers playing a, b, c, d
	for i := 0; i < 64; i++ {
		a, b, c, d := reg[0], reg[1], reg[2], reg[3]
		r := i / 16
		g := [4]int{i, (5*i + 1) % 16, (3*i + 5) % 16, (7 * i) % 16}[r]
		if vl {
			roundVL(r, b, c, d)
		} else {
			roundAVX2(r, b, c, d)
		}
		s := shifts[r][i%4]
		p("\tVPADDD %d(CX), Y%d, Y%d", 32*g, a, a)
		p("\tVPADDD %d(BX), Y%d, Y%d", 32*i, a, a)
		p("\tVPADDD Y4, Y%d, Y%d", a, a)
		if vl {
			p("\tVPROLD $%d, Y%d, Y%d", s, a, a)
		} else {
			p("\tVPSLLD $%d, Y%d, Y5", s, a)
			p("\tVPSRLD $%d, Y%d, Y%d", 32-s, a, a)
			p("\tVPOR Y5, Y%d, Y%d", a, a)
		}
		p("\tVPADDD Y%d, Y%d, Y%d", b, a, a)
		reg = [4]int{d, a, b, c}
	}
	// 64 steps rotate the roles a whole number of times: Y0..Y3 are a..d again.
	for j := 0; j < 4; j++ {
		p("\tVPADDD %d(AX), Y%d, Y%d", 32*j, j, j)
		p("\tVMOVDQU Y%d, %d(AX)", j, 32*j)
	}
	p("\tADDQ $64, SI")
	p("\tDECQ DX")
	p("\tJNE block")
	p("\tVZEROUPPER")
	p("\tRET")
}

func main() {
	defer out.Flush()
	p("// Code generated by gen_digest.go; DO NOT EDIT.")
	p("")
	p("// Eight MD5 compressions side by side: lane l of every ymm register")
	p("// belongs to message l. Per 64-byte block the sixteen message words of")
	p("// all lanes are transposed into w (sixteen word-vectors), then the 64")
	p("// steps run unrolled, the step constant added from a table holding")
	p("// each constant eight times. Y0..Y3 hold a, b, c, d (the roles rotate")
	p("// a step at a time), Y4 the round function. md5Blocks8 computes it in")
	p("// its three-operation form and rotates as shift/shift/or (AVX2 has no")
	p("// vector rotate; Y5 is the shifted copy, Y6 all ones for round four's")
	p("// NOT); md5Blocks8VL computes it with one VPTERNLOGD and rotates with")
	p("// VPROLD.")
	p("")
	p("#include \"textflag.h\"")
	p("")
	kernel("md5Blocks8", false)
	p("")
	kernel("md5Blocks8VL", true)
}
