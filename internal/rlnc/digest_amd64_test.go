package rlnc

import "testing"

// TestDigestBatchScalarDispatch reruns the differential with the lanes
// switched off, so the arm every non-AVX2 machine takes is proven on
// this one too.
func TestDigestBatchScalarDispatch(t *testing.T) {
	if !haveDigestLanes {
		t.Skip("the scalar arm is already the dispatched one")
	}
	haveDigestLanes = false
	defer func() { haveDigestLanes = true }()
	digestBatchDifferential(t)
}

// TestStagedVerifyScalarDispatch reruns the pipeline's staged-verify
// suite with the lanes switched off: groups are parked and settled the
// same way, and digested one message at a time.
func TestStagedVerifyScalarDispatch(t *testing.T) {
	if !haveDigestLanes {
		t.Skip("the scalar arm is already the dispatched one")
	}
	haveDigestLanes = false
	defer func() { haveDigestLanes = true }()
	stagedVerifySuite(t)
}
