//go:build !amd64

package gf

import "testing"

// Off amd64 the portable arm is the only one.
func useKernel32Arm(tb testing.TB, arm string) {
	if arm != "portable" {
		tb.Skipf("no %s arm off amd64", arm)
	}
}
