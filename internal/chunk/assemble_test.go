package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// assembleReference is Assemble as it was before the Assembler: append
// every chunk into a fresh buffer, then hash the whole file. The
// differential baseline.
func assembleReference(m *Manifest, chunks [][]byte) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(chunks) != len(m.Chunks) {
		return nil, fmt.Errorf("%w: have %d of %d chunks", ErrChunkMissing, len(chunks), len(m.Chunks))
	}
	out := make([]byte, 0, m.TotalSize)
	for i, c := range chunks {
		if c == nil {
			return nil, fmt.Errorf("%w: chunk %d", ErrChunkMissing, i)
		}
		if len(c) != m.Chunks[i].DataLen {
			return nil, fmt.Errorf("%w: chunk %d is %d bytes", ErrBadManifest, i, len(c))
		}
		out = append(out, c...)
	}
	if m.ContentMD5 != "" && ContentDigest(out) != m.ContentMD5 {
		return nil, fmt.Errorf("%w: assembled content digest mismatch", ErrBadManifest)
	}
	return out, nil
}

// testManifest describes size random bytes under testPlan (512-byte
// chunks) without encoding anything.
func testManifest(t testing.TB, size int, seed int64) (*Manifest, []byte) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	share, err := BuildShare("asm.bin", data, testPlan(), 1, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	return &share.Manifest, data
}

// fill decodes chunk i "in place": copies its bytes of data into the
// assembler's slot and marks it done.
func fill(a *Assembler, m *Manifest, data []byte, i int) {
	off := i * m.Plan.ChunkSize
	copy(a.Slot(i), data[off:off+m.Chunks[i].DataLen])
	a.Done(i)
}

func TestAssemblerOutOfOrder(t *testing.T) {
	m, data := testManifest(t, 16*512, 1)
	want, err := Assemble(m, Split(data, 512))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{15, 0, 3, 1, 2, 9, 4, 14, 5, 6, 8, 7, 13, 10, 12, 11} {
		if got := len(a.Slot(i)); got != 512 || cap(a.Slot(i)) != 512 {
			t.Fatalf("slot %d: len %d cap %d, want 512/512", i, got, cap(a.Slot(i)))
		}
		fill(a, m, data, i)
	}
	got, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(got, data) || ContentDigest(got) != m.ContentMD5 {
		t.Fatal("out-of-order assembly differs from Assemble")
	}
}

// TestAssemblerConcurrentDone has every chunk completed by its own
// goroutine, as the read path does: the digest must come out right
// whichever of them ends up advancing the frontier. Run under -race it
// is also the proof of the Done → hasher happens-before.
func TestAssemblerConcurrentDone(t *testing.T) {
	m, data := testManifest(t, 33*512-7, 2)
	for round := 0; round < 20; round++ {
		a, err := NewAssembler(m)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := range m.Chunks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fill(a, m, data, i)
			}(i)
		}
		wg.Wait()
		got, err := a.Finish()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d: assembled bytes differ", round)
		}
	}
}

func TestAssemblerShortLastChunk(t *testing.T) {
	m, data := testManifest(t, 3*512+100, 3)
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.Slot(3)); n != 100 {
		t.Fatalf("last slot is %d bytes, want 100", n)
	}
	for _, i := range []int{3, 2, 1, 0} {
		fill(a, m, data, i)
	}
	got, err := a.Finish()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("short last chunk: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

func TestAssemblerWrongDigestReturnsNoData(t *testing.T) {
	m, data := testManifest(t, 4*512, 4)
	m.ContentMD5 = ContentDigest([]byte("some other file"))
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Chunks {
		fill(a, m, data, i)
	}
	got, err := a.Finish()
	if !errors.Is(err, ErrBadManifest) || got != nil {
		t.Fatalf("Finish = (%d bytes, %v), want (nil, ErrBadManifest)", len(got), err)
	}
}

func TestAssemblerMissingSlot(t *testing.T) {
	m, data := testManifest(t, 4*512, 5)
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3} {
		fill(a, m, data, i)
	}
	got, err := a.Finish()
	if !errors.Is(err, ErrChunkMissing) || got != nil {
		t.Fatalf("Finish with chunk 2 never done = (%d bytes, %v), want (nil, ErrChunkMissing)", len(got), err)
	}
}

func TestAssemblerEmptyDigestSkipsHashing(t *testing.T) {
	m, data := testManifest(t, 4*512, 6)
	m.ContentMD5 = ""
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	if a.h != nil {
		t.Fatal("assembler built a hash for a manifest without ContentMD5")
	}
	for i := range m.Chunks {
		fill(a, m, data, i)
	}
	a.Slot(1)[0] ^= 1 // nothing left to notice
	if _, err := a.Finish(); err != nil {
		t.Fatalf("digest-free Finish: %v", err)
	}
}

func TestAssemblerRejectsInvalidManifest(t *testing.T) {
	m, _ := testManifest(t, 4*512, 7)
	m.TotalSize++
	if _, err := NewAssembler(m); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("NewAssembler on an inconsistent manifest = %v, want ErrBadManifest", err)
	}
}

// TestAssembleMatchesReference runs Assemble and its pre-Assembler
// implementation over the table the package's Assemble tests use —
// round trip, short, nil and wrong-size chunks, corrupted content with
// and without a digest, the empty file — and requires the same bytes
// and the same error class from both.
func TestAssembleMatchesReference(t *testing.T) {
	m, data := testManifest(t, 700, 8)
	pieces := Split(data, 512)
	corrupt := [][]byte{bytes.Clone(pieces[0]), pieces[1]}
	corrupt[0][3] ^= 1
	noDigest := *m
	noDigest.ContentMD5 = ""
	badTotal := *m
	badTotal.TotalSize++
	// BuildShare refuses empty data; a hand-written manifest need not.
	empty := &Manifest{Plan: testPlan(), Chunks: []ChunkInfo{{FileID: 1, K: 1}}, ContentMD5: ContentDigest(nil)}

	cases := []struct {
		name   string
		m      *Manifest
		chunks [][]byte
	}{
		{"round trip", m, pieces},
		{"too few chunks", m, pieces[:1]},
		{"too many chunks", m, append(Split(data, 512), []byte{})},
		{"nil chunk", m, [][]byte{pieces[0], nil}},
		{"wrong-size chunk", m, [][]byte{pieces[0], make([]byte, 10)}},
		{"corrupted content", m, corrupt},
		{"corrupted content, no digest", &noDigest, corrupt},
		{"invalid manifest", &badTotal, pieces},
		{"empty file", empty, [][]byte{{}}},
		{"empty file, nil chunk", empty, [][]byte{nil}},
	}
	for _, tc := range cases {
		want, wantErr := assembleReference(tc.m, tc.chunks)
		got, err := Assemble(tc.m, tc.chunks)
		if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%s: bytes differ from the reference (%d vs %d bytes)", tc.name, len(got), len(want))
		}
		for _, class := range []error{nil, ErrChunkMissing, ErrBadManifest} {
			if (class == nil && (err == nil) != (wantErr == nil)) ||
				(class != nil && errors.Is(err, class) != errors.Is(wantErr, class)) {
				t.Errorf("%s: error %v, reference %v", tc.name, err, wantErr)
				break
			}
		}
	}
}
