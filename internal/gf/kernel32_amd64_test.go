package gf

import "testing"

// TestKernel32PortableDispatch reruns the differential with the vector
// arm switched off, so the dispatch every non-GFNI machine takes —
// entry points into the byte-window tables — is proven on this one too.
func TestKernel32PortableDispatch(t *testing.T) {
	if !haveGFNI {
		t.Skip("the portable arm is already the dispatched one")
	}
	haveGFNI = false
	defer func() { haveGFNI = true }()
	kernel32Differential(t)
}
