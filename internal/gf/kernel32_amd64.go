package gf

// GFNI dispatch for the GF(2^32) region kernel (see kernel32_amd64.s):
// the AVX-512 arm where the CPU and OS run it, else the AVX2 arm.

//go:noescape
func mulAddAsm32(k *affine32, dst, src *byte, n int)

//go:noescape
func mulAsm32(k *affine32, dst *byte, n int)

//go:noescape
func mulAddAsm32Z(k *affine32, dst, src *byte, n int)

//go:noescape
func mulAsm32Z(k *affine32, dst *byte, n int)

// haveGFNI reports whether the affine kernels may be used: AVX2 with
// ymm state enabled, plus GFNI (CPUID.7.0:ECX bit 8).
var haveGFNI = haveVecP8 && detectGFNI()

// haveAVX512 reports whether the zmm step may be used on top of that:
// AVX-512 F, BW and VL, with the OS saving opmask and zmm state.
var haveAVX512 = haveGFNI && detectAVX512()

func detectGFNI() bool {
	const gfni = 1 << 8
	_, _, ecx7, _ := cpuidex(7, 0)
	return ecx7&gfni != 0
}

func detectAVX512() bool {
	const f, bw, vl = 1 << 16, 1 << 30, 1 << 31
	_, ebx7, _, _ := cpuidex(7, 0)
	if ebx7&(f|bw|vl) != f|bw|vl {
		return false
	}
	// XCR0: xmm, ymm, opmask, upper halves of zmm0-15, zmm16-31.
	eax, _ := xgetbv0()
	return eax&0xE6 == 0xE6
}

// mulAddVec32 runs the affine kernel over the 64-byte-aligned bulk and
// returns the number of bytes handled; the caller finishes the tail.
func mulAddVec32(k *affine32, dst, src []byte) int {
	n := len(src) &^ 63
	switch {
	case n == 0:
	case haveAVX512:
		mulAddAsm32Z(k, &dst[0], &src[0], n)
	default:
		mulAddAsm32(k, &dst[0], &src[0], n)
	}
	return n
}

func mulVec32(k *affine32, dst []byte) int {
	n := len(dst) &^ 63
	switch {
	case n == 0:
	case haveAVX512:
		mulAsm32Z(k, &dst[0], n)
	default:
		mulAsm32(k, &dst[0], n)
	}
	return n
}
