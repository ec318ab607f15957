// GFNI arms of the GF(2^32) region kernel. Multiplying by a constant is
// a 32x32 bit matrix over GF(2), i.e. a 4x4 grid of 8x8 blocks M[i][j]
// taking input byte j of a symbol to output byte i, and VGF2P8AFFINEQB
// applies one 8x8 block (held in a qword) to the eight bytes of the
// matching data qword. The loop therefore transposes 16 symbols so that
// every qword holds the same byte position of eight symbols, applies
// the 16 blocks with 8 instructions, and transposes back — all shuffles
// in-lane. The AVX2 arm does that on ymm registers, 16 symbols per
// 64-byte step; the AVX-512 arm runs the same step on zmm registers, 32
// symbols per 128 bytes, and finishes an odd 64 bytes with the AVX2 one.

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

// One 128-byte step: MUL64 on zmm registers, every shuffle still within
// a 16-byte lane. In: Z0, Z1 = 32 packed symbols. Out: Z2, Z3. Z7 and
// Z8..Z15 as in MUL64, each 16-byte pattern broadcast to all four
// lanes. The four products of each output half fold with one
// three-way VPTERNLOGD and one XOR. Clobbers Z0..Z6, Z16, Z17.
#define MUL128 \
	VPSHUFB    Z7, Z0, Z0                 \
	VPSHUFB    Z7, Z1, Z1                 \
	VPUNPCKLDQ Z1, Z0, Z2                 \
	VPUNPCKHDQ Z1, Z0, Z3                 \
	VPSHUFD    $0x4E, Z2, Z4              \
	VPSHUFD    $0x4E, Z3, Z5              \
	VGF2P8AFFINEQB $0, Z8, Z2, Z0         \
	VGF2P8AFFINEQB $0, Z9, Z4, Z6         \
	VGF2P8AFFINEQB $0, Z10, Z3, Z16       \
	VGF2P8AFFINEQB $0, Z11, Z5, Z17       \
	VPTERNLOGD $0x96, Z16, Z6, Z0         \
	VPXORD     Z17, Z0, Z0                \
	VGF2P8AFFINEQB $0, Z12, Z2, Z1        \
	VGF2P8AFFINEQB $0, Z13, Z4, Z6        \
	VGF2P8AFFINEQB $0, Z14, Z3, Z16       \
	VGF2P8AFFINEQB $0, Z15, Z5, Z17       \
	VPTERNLOGD $0x96, Z16, Z6, Z1         \
	VPXORD     Z17, Z1, Z1                \
	VSHUFPS    $0x88, Z1, Z0, Z2          \
	VSHUFPS    $0xDD, Z1, Z0, Z3          \
	VPSHUFB    Z7, Z2, Z2                 \
	VPSHUFB    Z7, Z3, Z3

// The low halves of Z7..Z15 are exactly what LOADK puts in Y7..Y15, so
// MUL64 runs unchanged after LOADKZ.
#define LOADKZ \
	VBROADCASTI32X4 0(AX), Z8     \
	VBROADCASTI32X4 16(AX), Z9    \
	VBROADCASTI32X4 32(AX), Z10   \
	VBROADCASTI32X4 48(AX), Z11   \
	VBROADCASTI32X4 64(AX), Z12   \
	VBROADCASTI32X4 80(AX), Z13   \
	VBROADCASTI32X4 96(AX), Z14   \
	VBROADCASTI32X4 112(AX), Z15  \
	VBROADCASTI32X4 transpose4x4<>(SB), Z7

// func mulAddAsm32Z(k *affine32, dst, src *byte, n int)
// dst ^= c*src over n bytes. Requires GFNI + AVX-512F/BW; n must be a
// positive multiple of 64.
TEXT ·mulAddAsm32Z(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	LOADKZ
	SUBQ $128, DX
	JB   addhalf

addloopZ:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	MUL128
	VPXORD    (DI), Z2, Z2
	VPXORD    64(DI), Z3, Z3
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, 64(DI)
	ADDQ      $128, SI
	ADDQ      $128, DI
	SUBQ      $128, DX
	JAE       addloopZ

addhalf:
	ADDQ $128, DX
	JE   addZdone
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	MUL64
	VPXOR   (DI), Y2, Y2
	VPXOR   32(DI), Y3, Y3
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)

addZdone:
	VZEROUPPER
	RET

// func mulAsm32Z(k *affine32, dst *byte, n int)
// dst = c*dst over n bytes. Requires GFNI + AVX-512F/BW; n must be a
// positive multiple of 64.
TEXT ·mulAsm32Z(SB), NOSPLIT, $0-24
	MOVQ k+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), DX
	LOADKZ
	SUBQ $128, DX
	JB   mulhalf

mulloopZ:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z1
	MUL128
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, 64(DI)
	ADDQ      $128, DI
	SUBQ      $128, DX
	JAE       mulloopZ

mulhalf:
	ADDQ $128, DX
	JE   mulZdone
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	MUL64
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)

mulZdone:
	VZEROUPPER
	RET

// 4x4 byte transpose within each 16-byte lane (an involution).
DATA transpose4x4<>+0(SB)/8, $0x0D0905010C080400
DATA transpose4x4<>+8(SB)/8, $0x0F0B07030E0A0602
DATA transpose4x4<>+16(SB)/8, $0x0D0905010C080400
DATA transpose4x4<>+24(SB)/8, $0x0F0B07030E0A0602
GLOBL transpose4x4<>(SB), RODATA, $32
