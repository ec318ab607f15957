package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"asymshare/internal/rlnc"
)

// assembleReference is Assemble written the long way round: append
// every chunk into a fresh buffer, checking each against its sum as
// refSum (sum_test.go, crypto/md5 alone) computes it, then the legacy
// whole-file digest where the manifest has one. The differential
// baseline.
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
		if info := m.Chunks[i]; info.HasSum() && refSum(m.Plan, info, c) != info.Sum {
			return nil, fmt.Errorf("%w: chunk %d sum mismatch", ErrBadManifest, i)
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

// preSums returns m as a share written before chunks carried sums
// published it: no Sum anywhere, the whole file's MD5 in ContentMD5.
func preSums(m *Manifest, data []byte) *Manifest {
	old := *m
	old.Chunks = append([]ChunkInfo(nil), m.Chunks...)
	for i := range old.Chunks {
		old.Chunks[i].Sum = rlnc.Digest{}
	}
	old.ContentMD5 = ContentDigest(data)
	return &old
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
	if !bytes.Equal(got, want) || !bytes.Equal(got, data) {
		t.Fatal("out-of-order assembly differs from Assemble")
	}
}

// TestAssemblerConcurrentDone has every chunk completed by its own
// goroutine, as the read path does, and Finish called once they have
// all returned. Run under -race it is the proof that slots and done
// flags of distinct chunks share nothing.
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

// TestAssemblerWrongDigestReturnsNoData: the one check the assembler
// still makes itself, a pre-sums manifest's ContentMD5.
func TestAssemblerWrongDigestReturnsNoData(t *testing.T) {
	m, data := testManifest(t, 4*512, 4)
	m = preSums(m, data)
	if got, err := Assemble(m, Split(data, 512)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("pre-sums manifest: err %v, identical %v", err, bytes.Equal(got, data))
	}
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

// TestAssemblerEmptyDigestSkipsHashing: the assembler checks no
// content of its own accord — sums are its callers' to check before
// Done — and a pre-sums manifest without a ContentMD5 has no check.
func TestAssemblerEmptyDigestSkipsHashing(t *testing.T) {
	m, data := testManifest(t, 4*512, 6)
	m = preSums(m, data)
	m.ContentMD5 = ""
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
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

// TestAssembleMatchesReference runs Assemble and assembleReference over
// the table the package's Assemble tests use — round trip, short, nil
// and wrong-size chunks, corrupted content under sums, under a pre-sums
// content digest and under neither, a tampered sum, mixed sums, the
// empty file — and requires the same bytes and the same error class
// from both.
func TestAssembleMatchesReference(t *testing.T) {
	m, data := testManifest(t, 700, 8)
	pieces := Split(data, 512)
	corrupt := [][]byte{bytes.Clone(pieces[0]), pieces[1]}
	corrupt[0][3] ^= 1
	old := preSums(m, data)
	noDigest := *old
	noDigest.ContentMD5 = ""
	badSum := *m
	badSum.Chunks = append([]ChunkInfo(nil), m.Chunks...)
	badSum.Chunks[1].Sum[15] ^= 0x80
	mixed := *m
	mixed.Chunks = []ChunkInfo{m.Chunks[0], old.Chunks[1]}
	badTotal := *m
	badTotal.TotalSize++
	// BuildShare refuses empty data; a hand-written manifest need not.
	empty := &Manifest{Plan: testPlan(), Chunks: []ChunkInfo{{FileID: 1, K: 1}}}
	empty.Chunks[0].Sum = empty.Chunks[0].SumOf(empty.Plan, nil)
	emptyOld := &Manifest{Plan: testPlan(), Chunks: []ChunkInfo{{FileID: 1, K: 1}}, ContentMD5: ContentDigest(nil)}

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
		{"pre-sums round trip", old, pieces},
		{"corrupted content, pre-sums digest", old, corrupt},
		{"corrupted content, no digest", &noDigest, corrupt},
		{"tampered sum", &badSum, pieces},
		{"sums on some chunks only", &mixed, pieces},
		{"invalid manifest", &badTotal, pieces},
		{"empty file", empty, [][]byte{{}}},
		{"empty file, nil chunk", empty, [][]byte{nil}},
		{"empty file, pre-sums", emptyOld, [][]byte{{}}},
	}
	wantClass := map[string]error{
		"corrupted content":                  ErrBadManifest,
		"corrupted content, pre-sums digest": ErrBadManifest,
		"tampered sum":                       ErrBadManifest,
		"sums on some chunks only":           ErrBadManifest,
	}
	for _, tc := range cases {
		want, wantErr := assembleReference(tc.m, tc.chunks)
		got, err := Assemble(tc.m, tc.chunks)
		if class, ok := wantClass[tc.name]; ok && (!errors.Is(err, class) || got != nil) {
			t.Errorf("%s: Assemble = (%d bytes, %v), want (nil, %v)", tc.name, len(got), err, class)
		}
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
