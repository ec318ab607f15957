//go:build !amd64

package rlnc

import "testing"

// Off amd64 the scalar arm is the only one.
func useDigestArm(tb testing.TB, arm string) {
	if arm != "scalar" {
		tb.Skipf("no %s arm off amd64", arm)
	}
}
