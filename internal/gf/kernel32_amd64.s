// GFNI + AVX2 arm of the GF(2^32) region kernel. Multiplying by a
// constant is a 32x32 bit matrix over GF(2), i.e. a 4x4 grid of 8x8
// blocks M[i][j] taking input byte j of a symbol to output byte i, and
// VGF2P8AFFINEQB applies one 8x8 block (held in a qword) to the eight
// bytes of the matching data qword. The loop therefore transposes 16
// symbols so that every qword holds the same byte position of eight
// symbols, applies the 16 blocks with 8 instructions, and transposes
// back — all shuffles in-lane.

#include "textflag.h"

// One 64-byte step. In: Y0, Y1 = 16 packed symbols. Out: Y2, Y3 = their
// products. Y7 = byte-transpose mask, Y8..Y15 = block pairs K0..K7 (see
// affine32.init for which blocks pair up). Clobbers Y0..Y6.
//
//	VPSHUFB      per lane: dword j = byte j of 4 symbols
//	VPUNPCKL/HDQ per lane: qwords [B0, B1] / [B2, B3], B j = byte j of 8 symbols
//	VPSHUFD      the same with the qwords swapped: [B1, B0] / [B3, B2]
//	4 x affine   [O0, O1] into Y0, then 4 x affine [O2, O3] into Y1
//	VSHUFPS      per lane: output dword i of the first / second 4 symbols
//	VPSHUFB      back to packed symbols
#define MUL64 \
	VPSHUFB    Y7, Y0, Y0            \
	VPSHUFB    Y7, Y1, Y1            \
	VPUNPCKLDQ Y1, Y0, Y2            \
	VPUNPCKHDQ Y1, Y0, Y3            \
	VPSHUFD    $0x4E, Y2, Y4         \
	VPSHUFD    $0x4E, Y3, Y5         \
	VGF2P8AFFINEQB $0, Y8, Y2, Y0    \
	VGF2P8AFFINEQB $0, Y9, Y4, Y6    \
	VPXOR      Y6, Y0, Y0            \
	VGF2P8AFFINEQB $0, Y10, Y3, Y6   \
	VPXOR      Y6, Y0, Y0            \
	VGF2P8AFFINEQB $0, Y11, Y5, Y6   \
	VPXOR      Y6, Y0, Y0            \
	VGF2P8AFFINEQB $0, Y12, Y2, Y1   \
	VGF2P8AFFINEQB $0, Y13, Y4, Y6   \
	VPXOR      Y6, Y1, Y1            \
	VGF2P8AFFINEQB $0, Y14, Y3, Y6   \
	VPXOR      Y6, Y1, Y1            \
	VGF2P8AFFINEQB $0, Y15, Y5, Y6   \
	VPXOR      Y6, Y1, Y1            \
	VSHUFPS    $0x88, Y1, Y0, Y2     \
	VSHUFPS    $0xDD, Y1, Y0, Y3     \
	VPSHUFB    Y7, Y2, Y2            \
	VPSHUFB    Y7, Y3, Y3

#define LOADK \
	VBROADCASTI128 0(AX), Y8     \
	VBROADCASTI128 16(AX), Y9    \
	VBROADCASTI128 32(AX), Y10   \
	VBROADCASTI128 48(AX), Y11   \
	VBROADCASTI128 64(AX), Y12   \
	VBROADCASTI128 80(AX), Y13   \
	VBROADCASTI128 96(AX), Y14   \
	VBROADCASTI128 112(AX), Y15  \
	VMOVDQU transpose4x4<>(SB), Y7

// func mulAddAsm32(k *affine32, dst, src *byte, n int)
// dst ^= c*src over n bytes. Requires GFNI + AVX2; n must be a positive
// multiple of 64.
TEXT ·mulAddAsm32(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	LOADK

addloop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	MUL64
	VPXOR   (DI), Y2, Y2
	VPXOR   32(DI), Y3, Y3
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, DX
	JNE     addloop
	VZEROUPPER
	RET

// func mulAsm32(k *affine32, dst *byte, n int)
// dst = c*dst over n bytes. Requires GFNI + AVX2; n must be a positive
// multiple of 64.
TEXT ·mulAsm32(SB), NOSPLIT, $0-24
	MOVQ k+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), DX
	LOADK

mulloop:
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	MUL64
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    $64, DI
	SUBQ    $64, DX
	JNE     mulloop
	VZEROUPPER
	RET

// 4x4 byte transpose within each 16-byte lane (an involution).
DATA transpose4x4<>+0(SB)/8, $0x0D0905010C080400
DATA transpose4x4<>+8(SB)/8, $0x0F0B07030E0A0602
DATA transpose4x4<>+16(SB)/8, $0x0D0905010C080400
DATA transpose4x4<>+24(SB)/8, $0x0F0B07030E0A0602
GLOBL transpose4x4<>(SB), RODATA, $32
