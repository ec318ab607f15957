package gf

// GFNI + AVX2 dispatch for the GF(2^32) region kernel (see
// kernel32_amd64.s).

//go:noescape
func mulAddAsm32(k *affine32, dst, src *byte, n int)

//go:noescape
func mulAsm32(k *affine32, dst *byte, n int)

// haveGFNI reports whether the affine kernels may be used: AVX2 with
// ymm state enabled, plus GFNI (CPUID.7.0:ECX bit 8).
var haveGFNI = haveVecP8 && detectGFNI()

func detectGFNI() bool {
	const gfni = 1 << 8
	_, _, ecx7, _ := cpuidex(7, 0)
	return ecx7&gfni != 0
}

// mulAddVec32 runs the affine kernel over the 64-byte-aligned bulk and
// returns the number of bytes handled; the caller finishes the tail.
func mulAddVec32(k *affine32, dst, src []byte) int {
	n := len(src) &^ 63
	if n > 0 {
		mulAddAsm32(k, &dst[0], &src[0], n)
	}
	return n
}

func mulVec32(k *affine32, dst []byte) int {
	n := len(dst) &^ 63
	if n > 0 {
		mulAsm32(k, &dst[0], n)
	}
	return n
}
