// Package gf implements arithmetic over the binary extension fields
// GF(2^4), GF(2^8), GF(2^16) and GF(2^32) used by the random linear
// coding layer of asymshare.
//
// The package exposes two levels of API:
//
//   - element arithmetic through the Field interface (Add, Mul, Inv, ...),
//     where elements are uint32 values whose top bits beyond the field
//     width are zero; and
//   - region kernels (MulAddSlice, MulSlice and the reusable MulTable)
//     which operate on symbol vectors packed into byte slices. Packed
//     vectors are the representation used for encoded message payloads,
//     so these kernels are the hot path of encoding and decoding. Each
//     width has one region implementation: split product tables for
//     p <= 16 (with an AVX2 arm for p = 4 and 8), and the GF(2^32)
//     kernel of kernel32.go.
//
// Fields with p <= 16 use discrete log/antilog tables built from a
// primitive polynomial; GF(2^32) uses carry-less shift-and-xor
// multiplication for elements.
package gf

import (
	"errors"
	"fmt"
	"sync"
)

// Supported field widths, in bits per symbol.
const (
	Bits4  = 4
	Bits8  = 8
	Bits16 = 16
	Bits32 = 32
)

var (
	// ErrDivideByZero is returned when computing the inverse of, or
	// dividing by, the zero element.
	ErrDivideByZero = errors.New("gf: divide by zero")

	// ErrUnsupportedBits is returned by New for widths other than
	// 4, 8, 16 or 32.
	ErrUnsupportedBits = errors.New("gf: unsupported field width")
)

// Field is arithmetic over GF(2^p). Implementations are immutable and
// safe for concurrent use.
type Field interface {
	// Bits returns the symbol width p.
	Bits() uint

	// Order returns the field size q = 2^p.
	Order() uint64

	// Mask returns the p-bit element mask (q - 1).
	Mask() uint32

	// Add returns a + b. In characteristic 2 addition is XOR and is its
	// own inverse, so Add doubles as subtraction.
	Add(a, b uint32) uint32

	// Mul returns the field product a * b.
	Mul(a, b uint32) uint32

	// Inv returns the multiplicative inverse of a. It returns
	// ErrDivideByZero if a is zero.
	Inv(a uint32) (uint32, error)

	// Div returns a / b, or ErrDivideByZero if b is zero.
	Div(a, b uint32) (uint32, error)

	// Exp returns a raised to the power n (with a^0 == 1, 0^n == 0 for
	// n > 0).
	Exp(a uint32, n uint64) uint32
}

// Primitive polynomials used for each supported width. The value is the
// polynomial with the implicit leading x^p term removed; all are
// primitive, so x (= 2) generates the multiplicative group.
const (
	poly4  = 0x13      // x^4 + x + 1
	poly8  = 0x11D     // x^8 + x^4 + x^3 + x^2 + 1
	poly16 = 0x1100B   // x^16 + x^12 + x^3 + x + 1
	poly32 = 0x0400007 // x^32 + x^22 + x^2 + x + 1
)

type lazyField struct {
	once  sync.Once
	field Field
	err   error
}

// Field construction is deterministic but table construction for
// GF(2^16) costs a few hundred microseconds, so instances are built
// once on first use and shared.
var _fields = map[uint]*lazyField{
	Bits4:  {},
	Bits8:  {},
	Bits16: {},
	Bits32: {},
}

// New returns the shared Field instance for the given symbol width.
// Supported widths are 4, 8, 16 and 32 bits.
func New(bits uint) (Field, error) {
	lf, ok := _fields[bits]
	if !ok {
		return nil, fmt.Errorf("%w: %d bits", ErrUnsupportedBits, bits)
	}
	lf.once.Do(func() {
		switch bits {
		case Bits4:
			lf.field, lf.err = newTableField(Bits4, poly4)
		case Bits8:
			lf.field, lf.err = newTableField(Bits8, poly8)
		case Bits16:
			lf.field, lf.err = newTableField(Bits16, poly16)
		case Bits32:
			lf.field = newGF32()
		}
	})
	return lf.field, lf.err
}

// MustNew is like New but panics on error. It is intended for
// initializing package-level configuration with known-good widths.
func MustNew(bits uint) Field {
	f, err := New(bits)
	if err != nil {
		panic(err)
	}
	return f
}

// Widths lists the supported symbol widths in ascending order.
func Widths() []uint {
	return []uint{Bits4, Bits8, Bits16, Bits32}
}

// expByMask is shared square-and-multiply exponentiation used by field
// implementations.
func expGeneric(f Field, a uint32, n uint64) uint32 {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	var result uint32 = 1
	base := a
	for n > 0 {
		if n&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		n >>= 1
	}
	return result
}
