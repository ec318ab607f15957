package rlnc

import "testing"

// OnScalarDigests runs f with the lanes switched off, so the arm every
// non-AVX2 machine takes is proven on this one too. Exported for the
// package's external tests.
func OnScalarDigests(t *testing.T, f func(t *testing.T)) {
	if !haveDigestLanes {
		t.Skip("the scalar arm is already the dispatched one")
	}
	haveDigestLanes = false
	defer func() { haveDigestLanes = true }()
	f(t)
}

// TestDigestBatchScalarDispatch reruns the differential on the scalar
// arm.
func TestDigestBatchScalarDispatch(t *testing.T) { OnScalarDigests(t, digestBatchDifferential) }

// TestStagedVerifyScalarDispatch reruns the pipeline's staged-verify
// suite on the scalar arm: groups are parked and settled the same way,
// and digested one message at a time.
func TestStagedVerifyScalarDispatch(t *testing.T) { OnScalarDigests(t, stagedVerifySuite) }
