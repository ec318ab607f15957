package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The GF(2^32) region kernel against the per-symbol shift-and-xor
// product gf32Mul, which shares no code with it: every symbol count
// 0..67 (the AVX-512 arm's 32-symbol step and the 16-symbol AVX2 step
// after it, the per-symbol tail, and the portable arm's 2-symbol word
// and 1-symbol tail all get crossed), with 0..3 dangling bytes after the
// last whole symbol and 0..3 bytes of misalignment in front, for c = 0,
// 1 and random. Every arm the host has runs it
// (TestKernel32PortableDispatch). Dangling bytes must come through
// untouched, except that c = 1 is a plain XOR and scaling by 0 a plain
// clear of the whole vector, as they always were.

// arm32 is one implementation of the kernel behind a common face.
type arm32 struct {
	name   string
	mulAdd func(c uint32, dst, src []byte)
	mul    func(c uint32, dst []byte)
}

func arms32() []arm32 {
	f := MustNew(Bits32)
	arms := []arm32{
		{"MulAddSlice/MulSlice",
			func(c uint32, dst, src []byte) { MulAddSlice(f, dst, src, c) },
			func(c uint32, dst []byte) { MulSlice(f, dst, c) }},
		{"MulTable",
			func(c uint32, dst, src []byte) {
				var t MulTable
				t.Init(f, c)
				t.MulAdd(dst, src)
			},
			func(c uint32, dst []byte) {
				var t MulTable
				t.Init(f, c)
				t.Mul(dst)
			}},
	}
	// The entry points above take the vector arm when there is one, so
	// pin the portable tables separately; c <= 1 never reaches them.
	tables := func(c uint32) *mul32Tables {
		basis := basis32(c)
		var t mul32Tables
		t.init(&basis)
		return &t
	}
	arms = append(arms, arm32{"byte-window tables",
		func(c uint32, dst, src []byte) { tables(c).mulAdd(dst, src) },
		func(c uint32, dst []byte) { tables(c).mul(dst) }})
	return arms
}

// The reference is kernel_test.go's per-symbol GetSym/Field.Mul/SetSym
// loop, which at this width is gf32Mul symbol by symbol.
func mulAdd32Ref(c uint32, dst, src []byte) { mulAddSliceRef(MustNew(Bits32), dst, src, c) }
func mul32Ref(c uint32, dst []byte)         { mulSliceRef(MustNew(Bits32), dst, c) }

// checkArm32 runs one (arm, c, symbols, dangling, misalignment) case
// for both operations and reports the first divergence.
func checkArm32(a arm32, rng *rand.Rand, c uint32, syms, dangle, off int) error {
	n := 4*syms + dangle
	src := randVec(rng, off+n)[off:]
	dst := randVec(rng, off+n)[off:]

	want := bytes.Clone(dst)
	mulAdd32Ref(c, want, src)
	if c == 1 {
		for i := 4 * syms; i < n; i++ {
			want[i] ^= src[i]
		}
	}
	got := bytes.Clone(dst)
	a.mulAdd(c, got, src)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s mulAdd c=%#x syms=%d dangle=%d off=%d diverges", a.name, c, syms, dangle, off)
	}

	want = bytes.Clone(dst)
	mul32Ref(c, want)
	got = bytes.Clone(dst)
	a.mul(c, got)
	if c == 0 {
		want = make([]byte, n)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s mul c=%#x syms=%d dangle=%d off=%d diverges", a.name, c, syms, dangle, off)
	}
	return nil
}

func TestKernel32MatchesPerSymbolReference(t *testing.T) {
	if !haveGFNI {
		t.Log("no GFNI+AVX2: only the portable arm runs on this machine")
	}
	kernel32Differential(t)
}

// kernel32Arms are the arms of the vector dispatch, fastest first.
var kernel32Arms = []string{"avx512", "avx2", "portable"}

// TestKernel32PortableDispatch reruns the differential on every arm the
// host has, forced down one at a time, so the arms the dispatch would
// not pick here — down to the byte-window tables every non-GFNI machine
// takes — are proven on this machine too.
func TestKernel32PortableDispatch(t *testing.T) {
	for _, arm := range kernel32Arms {
		t.Run(arm, func(t *testing.T) {
			useKernel32Arm(t, arm)
			kernel32Differential(t)
		})
	}
}

func kernel32Differential(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	for _, a := range arms32() {
		for syms := 0; syms <= 67; syms++ {
			for dangle := 0; dangle < 4; dangle++ {
				for off := 0; off < 4; off++ {
					for _, c := range []uint32{0, 1, 2, 0x80000000, rng.Uint32() | 2, rng.Uint32() | 2} {
						if c <= 1 && a.name == "byte-window tables" {
							continue
						}
						if err := checkArm32(a, rng, c, syms, dangle, off); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// TestAffineBlocksAreTheProductMatrix checks the vector arm's
// per-constant state bit by bit, on any machine: block M[i][j] must map
// input byte j to output byte i exactly as the field product does.
func TestAffineBlocksAreTheProductMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	// where[i][j] = (pair, slot) holding M[i][j]; see affine32.
	type at struct{ pair, slot int }
	where := [4][4]at{
		{{0, 0}, {1, 0}, {2, 0}, {3, 0}},
		{{1, 1}, {0, 1}, {3, 1}, {2, 1}},
		{{4, 0}, {5, 0}, {6, 0}, {7, 0}},
		{{5, 1}, {4, 1}, {7, 1}, {6, 1}},
	}
	for trial := 0; trial < 64; trial++ {
		c := rng.Uint32()
		basis := basis32(c)
		var k affine32
		k.init(&basis)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m := k[where[i][j].pair][where[i][j].slot]
				for x := 0; x < 256; x++ {
					// VGF2P8AFFINEQB: output bit b = parity(matrix byte 7-b AND x).
					var got byte
					for b := 0; b < 8; b++ {
						row := byte(m >> (8 * (7 - b)))
						got |= parity8(row&byte(x)) << b
					}
					want := byte(gf32Mul(c, uint32(x)<<(8*j)) >> (8 * i))
					if got != want {
						t.Fatalf("c=%#x M[%d][%d] x=%#x: %#x, want %#x", c, i, j, x, got, want)
					}
				}
			}
		}
	}
}

func parity8(b byte) byte {
	b ^= b >> 4
	b ^= b >> 2
	b ^= b >> 1
	return b & 1
}

// FuzzKernel32 lets the fuzzer pick constant, data, length and
// misalignment; every arm must agree with the per-symbol reference.
func FuzzKernel32(f *testing.F) {
	f.Add(uint32(0xA7C351A7), []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456"), uint8(1))
	f.Add(uint32(1), []byte{1, 2, 3, 4, 5}, uint8(0))
	f.Add(uint32(0), []byte{}, uint8(3))
	arms := arms32()
	f.Fuzz(func(t *testing.T, c uint32, data []byte, off uint8) {
		o := int(off % 4)
		if len(data) < o {
			return
		}
		src := data[o:]
		for _, a := range arms {
			if c <= 1 && a.name == "byte-window tables" {
				continue
			}
			dst := make([]byte, o+len(src))[o:]
			for i := range dst {
				dst[i] = byte(i*29 + 5)
			}
			want := bytes.Clone(dst)
			mulAdd32Ref(c, want, src)
			if c == 1 {
				for i := len(src) &^ 3; i < len(src); i++ {
					want[i] ^= src[i]
				}
			}
			a.mulAdd(c, dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: mulAdd c=%#x len=%d off=%d diverges", a.name, c, len(src), o)
			}
		}
	})
}
