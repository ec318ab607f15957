//go:build !amd64

package gf

// Non-amd64 fallbacks: no vector kernels, the pure-Go word kernels in
// kernel.go carry the load.

const haveVecP8 = false

func mulAddVecP8(lo, hi *[16]byte, dst, src []byte) int { return 0 }
func mulVecP8(lo, hi *[16]byte, dst []byte) int         { return 0 }

const haveGFNI, haveAVX512 = false, false

func mulAddVec32(k *affine32, dst, src []byte) int { return 0 }
func mulVec32(k *affine32, dst []byte) int         { return 0 }
