package gf_test

import (
	"fmt"

	"asymshare/internal/gf"
)

// Example exercises basic field arithmetic over GF(2^8).
func Example() {
	f := gf.MustNew(gf.Bits8)
	a, b := uint32(0x53), uint32(0xCA)
	p := f.Mul(a, b)
	inv, err := f.Inv(b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("a*b = %#x\n", p)
	fmt.Printf("(a*b)/b == a: %v\n", f.Mul(p, inv) == a)
	fmt.Printf("a + a = %d (characteristic 2)\n", f.Add(a, a))
	// Output:
	// a*b = 0x8f
	// (a*b)/b == a: true
	// a + a = 0 (characteristic 2)
}

// ExampleMulAddSlice shows the packed-vector hot path used by the
// encoder: dst += c * src, symbol-wise.
func ExampleMulAddSlice() {
	f := gf.MustNew(gf.Bits8)
	dst := []byte{0, 0, 0, 0}
	src := []byte{1, 2, 3, 4}
	gf.MulAddSlice(f, dst, src, 2) // dst = 2*src over GF(256)
	fmt.Println(dst)
	// Applying the same scaled addition again cancels (characteristic 2).
	gf.MulAddSlice(f, dst, src, 2)
	fmt.Println(dst)
	// Output:
	// [2 4 6 8]
	// [0 0 0 0]
}
