package gf

// GF(2^32) implementation. Log/antilog tables are infeasible at this
// size, so element products use carry-less shift-and-xor multiplication
// reduced by the primitive polynomial x^32 + x^22 + x^2 + x + 1. Region
// products go through the kernel in kernel32.go.

type gf32Field struct{}

var _ Field = gf32Field{}

func newGF32() Field { return gf32Field{} }

func (gf32Field) Bits() uint    { return Bits32 }
func (gf32Field) Order() uint64 { return 1 << 32 }
func (gf32Field) Mask() uint32  { return 0xFFFFFFFF }

func (gf32Field) Add(a, b uint32) uint32 { return a ^ b }

func (gf32Field) Mul(a, b uint32) uint32 { return gf32Mul(a, b) }

func gf32Mul(a, b uint32) uint32 {
	var r uint32
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		carry := a & 0x80000000
		a <<= 1
		if carry != 0 {
			a ^= poly32
		}
	}
	return r
}

func (f gf32Field) Inv(a uint32) (uint32, error) {
	if a == 0 {
		return 0, ErrDivideByZero
	}
	// Extended Euclid over GF(2)[x] against the full modulus
	// x^32 + (reduced part).
	const modulus = uint64(1)<<32 | poly32
	inv, ok := polyInvMod(uint64(a), modulus)
	if !ok {
		// Unreachable for a non-zero element of a field defined by an
		// irreducible polynomial.
		return 0, ErrDivideByZero
	}
	return uint32(inv), nil
}

func (f gf32Field) Div(a, b uint32) (uint32, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return 0, err
	}
	return gf32Mul(a, bi), nil
}

func (f gf32Field) Exp(a uint32, n uint64) uint32 {
	return expGeneric(f, a, n)
}
