package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// mulAddSliceRef is the per-symbol reference the word kernels must
// match bit-for-bit: dst[i] ^= c*src[i] via GetSym/SetSym.
func mulAddSliceRef(f Field, dst, src []byte, c uint32) {
	bits := f.Bits()
	for i := 0; i < VecSymbols(bits, len(src)); i++ {
		s := GetSym(bits, src, i)
		d := GetSym(bits, dst, i)
		SetSym(bits, dst, i, d^f.Mul(s, c))
	}
}

func mulSliceRef(f Field, dst []byte, c uint32) {
	bits := f.Bits()
	for i := 0; i < VecSymbols(bits, len(dst)); i++ {
		SetSym(bits, dst, i, f.Mul(GetSym(bits, dst, i), c))
	}
}

func randVec(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// vecLens exercises the 8-byte word path, the sub-word tail, and the
// empty slice for each width (lengths are in bytes and must hold whole
// symbols for every width under test).
func vecLens(bits uint) []int {
	switch bits {
	case Bits16:
		return []int{0, 2, 6, 8, 10, 64, 258, 1024}
	default:
		return []int{0, 1, 3, 7, 8, 9, 64, 255, 1024}
	}
}

func TestMulAddSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		for _, n := range vecLens(bits) {
			if bits == Bits32 && n%4 != 0 {
				continue
			}
			for trial := 0; trial < 8; trial++ {
				c := uint32(rng.Int63()) & f.Mask()
				src := randVec(rng, n)
				dst := randVec(rng, n)
				want := bytes.Clone(dst)
				mulAddSliceRef(f, want, src, c)
				MulAddSlice(f, dst, src, c)
				if !bytes.Equal(dst, want) {
					t.Fatalf("GF(2^%d) n=%d c=%#x: MulAddSlice diverges from reference", bits, n, c)
				}
			}
		}
	}
}

func TestMulSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		for _, n := range vecLens(bits) {
			if bits == Bits32 && n%4 != 0 {
				continue
			}
			for trial := 0; trial < 8; trial++ {
				c := uint32(rng.Int63()) & f.Mask()
				dst := randVec(rng, n)
				want := bytes.Clone(dst)
				mulSliceRef(f, want, c)
				MulSlice(f, dst, c)
				if !bytes.Equal(dst, want) {
					t.Fatalf("GF(2^%d) n=%d c=%#x: MulSlice diverges from reference", bits, n, c)
				}
			}
		}
	}
}

func TestMulTableMatchesOneShotKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		var tab MulTable
		for trial := 0; trial < 16; trial++ {
			c := uint32(rng.Int63()) & f.Mask()
			tab.Init(f, c)
			if tab.C() != c {
				t.Fatalf("GF(2^%d): C()=%#x want %#x", bits, tab.C(), c)
			}
			n := 128
			src := randVec(rng, n)
			dst := randVec(rng, n)
			want := bytes.Clone(dst)
			mulAddSliceRef(f, want, src, c)
			tab.MulAdd(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("GF(2^%d) c=%#x: MulTable.MulAdd diverges", bits, c)
			}
			want = bytes.Clone(dst)
			mulSliceRef(f, want, c)
			tab.Mul(dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("GF(2^%d) c=%#x: MulTable.Mul diverges", bits, c)
			}
		}
	}
}

// kernelArms are the arms of the p <= 16 dispatch: the AVX2 nibble
// kernel, then the scalar word kernels every other machine runs.
var kernelArms = []string{"avx2", "portable"}

// TestKernelPortableDispatch runs the p <= 16 differential with the
// dispatch forced down each arm the host has, so the scalar word
// kernels — the only p <= 16 region code on arm64 and pre-AVX2 amd64 —
// are proven on an AVX2 machine too: every length 0..67 bytes (word
// bulk, sub-word tail, the vector arm's 32-byte step and a p = 16
// dangling byte), 0..3 bytes of misalignment, c = 0, 1 and random.
func TestKernelPortableDispatch(t *testing.T) {
	for _, arm := range kernelArms {
		t.Run(arm, func(t *testing.T) {
			useKernelArm(t, arm)
			rng := rand.New(rand.NewSource(49))
			for _, bits := range []uint{Bits4, Bits8, Bits16} {
				f := MustNew(bits)
				for n := 0; n <= 67; n++ {
					for off := 0; off < 4; off++ {
						for _, c := range []uint32{0, 1, 2, f.Mask(), rng.Uint32(), rng.Uint32()} {
							src := randVec(rng, off+n)[off:]
							dst := randVec(rng, off+n)[off:]
							if err := checkKernel(f, c&f.Mask(), dst, src); err != nil {
								t.Fatalf("n=%d off=%d: %v", n, off, err)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzSplitKernels lets the fuzzer pick the width (4, 8 or 16), the
// dispatch arm, the constant, the data and the misalignment; every
// p <= 16 entry point must agree with the per-symbol reference.
func FuzzSplitKernels(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0xB), []byte("0123456789abcdef0123456789abcdef0123456"), uint8(1))
	f.Add(uint8(1), uint8(1), uint32(0xA7), []byte("0123456789abcdef0123456789abcdef0123456789"), uint8(2))
	f.Add(uint8(2), uint8(1), uint32(1), []byte{1, 2, 3, 4, 5}, uint8(0))
	f.Add(uint8(2), uint8(0), uint32(0), []byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, width, arm uint8, c uint32, data []byte, off uint8) {
		field := MustNew([]uint{Bits4, Bits8, Bits16}[width%3])
		useKernelArm(t, kernelArms[int(arm)%len(kernelArms)])
		o := int(off % 4)
		if len(data) < o {
			return
		}
		src := data[o:]
		dst := make([]byte, o+len(src))[o:]
		for i := range dst {
			dst[i] = byte(i*29 + 5)
		}
		if err := checkKernel(field, c&field.Mask(), dst, src); err != nil {
			t.Fatal(err)
		}
	})
}

// checkKernel runs MulAddSlice, MulSlice and MulTable.MulAdd/Mul on
// copies of dst and reports the first that diverges from the per-symbol
// reference. Only c = 1 (a plain XOR) and c = 0 (a plain clear) touch
// the dangling byte of an odd-length p = 16 vector.
func checkKernel(f Field, c uint32, dst, src []byte) error {
	whole := VecBytes(f.Bits(), VecSymbols(f.Bits(), len(dst)))
	wantAdd := bytes.Clone(dst)
	mulAddSliceRef(f, wantAdd, src, c)
	if c == 1 {
		for i := whole; i < len(dst); i++ {
			wantAdd[i] ^= src[i]
		}
	}
	wantMul := bytes.Clone(dst)
	mulSliceRef(f, wantMul, c)
	if c == 0 {
		clear(wantMul)
	}
	var tab MulTable
	tab.Init(f, c)
	for _, op := range []struct {
		name string
		want []byte
		run  func(d []byte)
	}{
		{"MulAddSlice", wantAdd, func(d []byte) { MulAddSlice(f, d, src, c) }},
		{"MulSlice", wantMul, func(d []byte) { MulSlice(f, d, c) }},
		{"MulTable.MulAdd", wantAdd, func(d []byte) { tab.MulAdd(d, src) }},
		{"MulTable.Mul", wantMul, func(d []byte) { tab.Mul(d) }},
	} {
		got := bytes.Clone(dst)
		op.run(got)
		if !bytes.Equal(got, op.want) {
			return fmt.Errorf("GF(2^%d) %s c=%#x len=%d diverges", f.Bits(), op.name, c, len(dst))
		}
	}
	return nil
}

func TestMulAddWordsMatchesMulLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		for _, n := range []int{0, 1, 5, 64, 129} {
			for trial := 0; trial < 8; trial++ {
				c := uint32(rng.Int63()) & f.Mask()
				src := make([]uint32, n)
				dst := make([]uint32, n)
				want := make([]uint32, n)
				for i := range src {
					src[i] = uint32(rng.Int63()) & f.Mask()
					dst[i] = uint32(rng.Int63()) & f.Mask()
					want[i] = dst[i] ^ f.Mul(src[i], c)
				}
				MulAddWords(f, dst, src, c)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("GF(2^%d) c=%#x i=%d: MulAddWords %#x want %#x", bits, c, i, dst[i], want[i])
					}
				}
				scaled := make([]uint32, n)
				copy(scaled, want)
				MulWords(f, scaled, c)
				for i := range scaled {
					if w := f.Mul(want[i], c); scaled[i] != w {
						t.Fatalf("GF(2^%d) c=%#x i=%d: MulWords %#x want %#x", bits, c, i, scaled[i], w)
					}
				}
			}
		}
	}
}

// BenchmarkMulAddSlice compares the split-table word kernels against
// the per-symbol reference — the speedup the decode pipeline is built
// on. At p = 32 the kernel row
// has one sub-row per arm the host has (avx512, avx2, portable).
func BenchmarkMulAddSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []uint{Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		sizes := []int{4096, 16384}
		if bits == Bits32 {
			sizes = []int{4096, 131072} // 131072 B = one default-plan chunk (m = 32768)
		}
		for _, n := range sizes {
			src := randVec(rng, n)
			dst := randVec(rng, n)
			c := uint32(0xA7C3_51A7) & f.Mask()
			kernel := func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					MulAddSlice(f, dst, src, c)
				}
			}
			b.Run(fmt.Sprintf("kernel/p%d/%dB", bits, n), func(b *testing.B) {
				if bits != Bits32 {
					kernel(b)
					return
				}
				for _, arm := range kernel32Arms {
					b.Run(arm, func(b *testing.B) {
						useKernel32Arm(b, arm)
						kernel(b)
					})
				}
			})
			b.Run(fmt.Sprintf("table/p%d/%dB", bits, n), func(b *testing.B) {
				var tab MulTable
				tab.Init(f, c)
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tab.MulAdd(dst, src)
				}
			})
			b.Run(fmt.Sprintf("persym/p%d/%dB", bits, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					mulAddSliceRef(f, dst, src, c)
				}
			})
		}
	}
}

// TestOneShotP8SteadyStateAllocs: the one-shot kernels build their two
// 16-byte nibble tables on the stack and hand them to the AVX2 stubs,
// which only read them; without //go:noescape on the stubs the tables
// escaped and every call heap-allocated both.
func TestOneShotP8SteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bits := range []uint{Bits4, Bits8} {
		f := MustNew(bits)
		dst, src := randVec(rng, 1024), randVec(rng, 1024)
		if n := testing.AllocsPerRun(100, func() { MulAddSlice(f, dst, src, 0x0b) }); n != 0 {
			t.Errorf("GF(2^%d): one-shot MulAddSlice allocates %v times per call, want 0", bits, n)
		}
		if n := testing.AllocsPerRun(100, func() { MulSlice(f, dst, 0x0b) }); n != 0 {
			t.Errorf("GF(2^%d): one-shot MulSlice allocates %v times per call, want 0", bits, n)
		}
	}
}
