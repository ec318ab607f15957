package gf

import "testing"

// useKernel32Arm forces the dispatch down to one arm for the rest of tb
// by flipping the dispatch variables, and puts the host's back on
// cleanup. An arm the host lacks skips tb, naming the missing CPUID
// features, so a CI log shows what went uncovered.
func useKernel32Arm(tb testing.TB, arm string) {
	host512, hostGFNI := haveAVX512, haveGFNI
	switch {
	case arm == "avx512" && !host512:
		tb.Skip("host lacks AVX512F+AVX512BW+AVX512VL (with opmask/zmm state) or GFNI")
	case arm == "avx2" && !hostGFNI:
		tb.Skip("host lacks AVX2 or GFNI")
	}
	tb.Cleanup(func() { haveAVX512, haveGFNI = host512, hostGFNI })
	haveAVX512 = arm == "avx512"
	haveGFNI = arm != "portable"
}
