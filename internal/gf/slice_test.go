package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestVecBytesSymbols(t *testing.T) {
	tests := []struct {
		bits  uint
		m     int
		bytes int
	}{
		{Bits4, 1, 1},
		{Bits4, 2, 1},
		{Bits4, 3, 2},
		{Bits8, 5, 5},
		{Bits16, 5, 10},
		{Bits32, 5, 20},
	}
	for _, tt := range tests {
		if got := VecBytes(tt.bits, tt.m); got != tt.bytes {
			t.Errorf("VecBytes(%d, %d) = %d, want %d", tt.bits, tt.m, got, tt.bytes)
		}
	}
	for _, bits := range Widths() {
		for m := 2; m < 40; m += 2 {
			n := VecBytes(bits, m)
			if got := VecSymbols(bits, n); got != m {
				t.Errorf("VecSymbols(%d, %d) = %d, want %d", bits, n, got, m)
			}
		}
	}
}

func TestGetSetSymRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range Widths() {
		f := MustNew(bits)
		const m = 17
		vec := make([]byte, VecBytes(bits, m+1)) // even symbol count for p=4
		want := make([]uint32, m)
		for i := range want {
			want[i] = rng.Uint32() & f.Mask()
			SetSym(bits, vec, i, want[i])
		}
		for i := range want {
			if got := GetSym(bits, vec, i); got != want[i] {
				t.Fatalf("GF(2^%d): sym %d = %#x, want %#x", bits, i, got, want[i])
			}
		}
	}
}

func TestSetSymDoesNotDisturbNeighbors(t *testing.T) {
	vec := make([]byte, 2)
	SetSym(Bits4, vec, 0, 0xA)
	SetSym(Bits4, vec, 1, 0x5)
	SetSym(Bits4, vec, 2, 0xF)
	if GetSym(Bits4, vec, 0) != 0xA || GetSym(Bits4, vec, 1) != 0x5 || GetSym(Bits4, vec, 2) != 0xF {
		t.Fatalf("nibble packing disturbed neighbors: % x", vec)
	}
	SetSym(Bits4, vec, 1, 0x0)
	if GetSym(Bits4, vec, 0) != 0xA || GetSym(Bits4, vec, 2) != 0xF {
		t.Fatalf("overwrite disturbed neighbors: % x", vec)
	}
}

// The c = 0, c = 1, cancelling and inverse cases kernel_test.go's
// random-constant differentials seldom or never draw.
func TestMulAddSliceSpecialConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, f := range allFields(t) {
		n := VecBytes(f.Bits(), 32)
		src := randVec(rng, n)
		dst := randVec(rng, n)

		// c = 0 leaves dst untouched.
		got := bytes.Clone(dst)
		MulAddSlice(f, got, src, 0)
		if !bytes.Equal(got, dst) {
			t.Errorf("GF(2^%d): MulAddSlice with c=0 modified dst", f.Bits())
		}

		// c = 1 is a plain XOR.
		got = bytes.Clone(dst)
		MulAddSlice(f, got, src, 1)
		want := bytes.Clone(dst)
		AddSlice(want, src)
		if !bytes.Equal(got, want) {
			t.Errorf("GF(2^%d): MulAddSlice with c=1 != XOR", f.Bits())
		}

		// Applying the same scaled addition twice cancels out.
		c := rng.Uint32()&f.Mask() | 1
		got = bytes.Clone(dst)
		MulAddSlice(f, got, src, c)
		MulAddSlice(f, got, src, c)
		if !bytes.Equal(got, dst) {
			t.Errorf("GF(2^%d): double MulAddSlice did not cancel", f.Bits())
		}
	}
}

func TestMulSliceInverseRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, f := range allFields(t) {
		n := VecBytes(f.Bits(), 40)
		vec := randVec(rng, n)
		c := rng.Uint32()&f.Mask() | 1
		inv, err := f.Inv(c)
		if err != nil {
			t.Fatal(err)
		}
		got := bytes.Clone(vec)
		MulSlice(f, got, c)
		MulSlice(f, got, inv)
		if !bytes.Equal(got, vec) {
			t.Fatalf("GF(2^%d): scaling by c then c^-1 did not restore", f.Bits())
		}
	}
}

func TestMulAddSliceLengthMismatchPanics(t *testing.T) {
	for _, f := range allFields(t) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GF(2^%d): no panic on length mismatch", f.Bits())
				}
			}()
			MulAddSlice(f, make([]byte, 8), make([]byte, 4), 1)
		}()
	}
}

func TestIsZeroSlice(t *testing.T) {
	if !IsZeroSlice(nil) || !IsZeroSlice(make([]byte, 10)) {
		t.Error("IsZeroSlice false negatives")
	}
	v := make([]byte, 10)
	v[9] = 1
	if IsZeroSlice(v) {
		t.Error("IsZeroSlice missed non-zero byte")
	}
}

func TestAddSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddSlice did not panic on mismatched lengths")
		}
	}()
	AddSlice(make([]byte, 3), make([]byte, 4))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range Widths() {
		f := MustNew(bits)
		xs := make([]uint32, 1024)
		for i := range xs {
			xs[i] = rng.Uint32()&f.Mask() | 1
		}
		b.Run("GF2_"+itoa(int(bits)), func(b *testing.B) {
			var acc uint32 = 1
			for i := 0; i < b.N; i++ {
				acc = f.Mul(acc|1, xs[i%len(xs)])
			}
			_ = acc
		})
	}
}
