package rlnc

import "testing"

// useDigestArm forces DigestBatch down to one arm for the rest of tb by
// flipping the dispatch variables, and puts the host's back on cleanup.
// An arm the host lacks skips tb, naming the missing CPUID features, so
// a CI log shows what went uncovered.
func useDigestArm(tb testing.TB, arm string) {
	hostLanes, hostVL := haveDigestLanes, haveDigestVL
	switch {
	case arm == "vl" && !hostVL:
		tb.Skip("host lacks AVX512F+AVX512BW+AVX512VL (with opmask/zmm state) or GFNI")
	case arm == "avx2" && !hostLanes:
		tb.Skip("host lacks AVX2")
	}
	tb.Cleanup(func() { haveDigestLanes, haveDigestVL = hostLanes, hostVL })
	haveDigestVL = arm == "vl"
	haveDigestLanes = arm != "scalar"
}
