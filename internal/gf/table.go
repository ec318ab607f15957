package gf

// Log/antilog table implementation for GF(2^p) with p <= 16. The tables
// are built from a primitive polynomial, so alpha = x = 2 generates the
// multiplicative group and
//
//	exp[i]  = alpha^i            for 0 <= i < 2*(q-1)
//	log[a]  = discrete log of a  for 1 <= a < q
//
// The exp table is doubled so products exp[log a + log b] need no modular
// reduction.

import "fmt"

type tableField struct {
	bits uint
	mask uint32
	q    uint32
	exp  []uint32
	log  []uint32
}

var _ Field = (*tableField)(nil)

// newTableField builds the tables for GF(2^bits) defined by the given
// primitive polynomial (with the leading x^bits term included in poly's
// bit pattern at position bits). It returns an error if the polynomial
// does not generate the full multiplicative group, which would indicate
// a non-primitive polynomial.
func newTableField(bits uint, poly uint64) (*tableField, error) {
	if bits == 0 || bits > 16 {
		return nil, fmt.Errorf("%w: %d bits for table field", ErrUnsupportedBits, bits)
	}
	q := uint32(1) << bits
	f := &tableField{
		bits: bits,
		mask: q - 1,
		q:    q,
		exp:  make([]uint32, 2*(q-1)),
		log:  make([]uint32, q),
	}
	reduced := uint32(poly) & f.mask // poly with leading term stripped
	x := uint32(1)
	for i := uint32(0); i < q-1; i++ {
		f.exp[i] = x
		if x != 1 && f.log[x] != 0 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive for GF(2^%d)", poly, bits)
		}
		f.log[x] = i
		// Multiply by alpha = x, reducing modulo the polynomial.
		carry := x & (q >> 1)
		x = (x << 1) & f.mask
		if carry != 0 {
			x ^= reduced
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not cycle back to 1 in GF(2^%d)", poly, bits)
	}
	copy(f.exp[q-1:], f.exp[:q-1])
	return f, nil
}

func (f *tableField) Bits() uint    { return f.bits }
func (f *tableField) Order() uint64 { return uint64(f.q) }
func (f *tableField) Mask() uint32  { return f.mask }

func (f *tableField) Add(a, b uint32) uint32 { return (a ^ b) & f.mask }

func (f *tableField) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a&f.mask]+f.log[b&f.mask]]
}

func (f *tableField) Inv(a uint32) (uint32, error) {
	a &= f.mask
	if a == 0 {
		return 0, ErrDivideByZero
	}
	return f.exp[(f.q-1)-f.log[a]], nil
}

func (f *tableField) Div(a, b uint32) (uint32, error) {
	b &= f.mask
	if b == 0 {
		return 0, ErrDivideByZero
	}
	a &= f.mask
	if a == 0 {
		return 0, nil
	}
	return f.exp[f.log[a]+(f.q-1)-f.log[b]], nil
}

func (f *tableField) Exp(a uint32, n uint64) uint32 {
	a &= f.mask
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	// alpha^(log a * n mod (q-1)); reduce the exponent in uint64 space.
	e := (uint64(f.log[a]) * (n % uint64(f.q-1))) % uint64(f.q-1)
	return f.exp[e]
}
