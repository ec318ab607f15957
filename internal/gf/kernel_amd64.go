package gf

// AVX2 dispatch for the nibble-split kernels (see kernel_amd64.s).

//go:noescape
func mulAddAsmP8(lo, hi *[16]byte, dst, src *byte, n int)

//go:noescape
func mulAsmP8(lo, hi *[16]byte, dst *byte, n int)

func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// haveVecP8 reports whether the AVX2 nibble kernels may be used: the
// CPU must support AVX2 and the OS must have enabled ymm state.
var haveVecP8 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave = 1 << 27
	const avx = 1 << 28
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 { // xmm+ymm state enabled
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&avx2 != 0
}

// mulAddVecP8 runs the AVX2 kernel over the 32-byte-aligned bulk and
// returns the number of bytes handled; the caller finishes the tail.
func mulAddVecP8(lo, hi *[16]byte, dst, src []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		mulAddAsmP8(lo, hi, &dst[0], &src[0], n)
	}
	return n
}

func mulVecP8(lo, hi *[16]byte, dst []byte) int {
	n := len(dst) &^ 31
	if n > 0 {
		mulAsmP8(lo, hi, &dst[0], n)
	}
	return n
}
