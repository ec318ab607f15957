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
// refSum (sum_test.go, crypto/md5 alone) computes it. The differential
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
		if info := m.Chunks[i]; refSum(m.Plan, info, c) != info.Sum {
			return nil, fmt.Errorf("%w: chunk %d sum mismatch", ErrBadManifest, i)
		}
		out = append(out, c...)
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

// withoutSums returns a copy of m with no Sum on any chunk: the
// manifest a share written before chunks carried sums published.
func withoutSums(m *Manifest) *Manifest {
	old := *m
	old.Chunks = append([]ChunkInfo(nil), m.Chunks...)
	for i := range old.Chunks {
		old.Chunks[i].Sum = rlnc.Digest{}
	}
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
	// The last slot reaches over its padding to whole chunk-vectors, so
	// its decoder can eliminate in place; Finish clips it off.
	params, err := m.Chunks[3].Params(m.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if n, c := len(a.Slot(3)), cap(a.Slot(3)); n != 100 || c != params.CapacityBytes() || c <= n {
		t.Fatalf("last slot is %d bytes of capacity %d, want 100 of %d", n, c, params.CapacityBytes())
	}
	for _, i := range []int{3, 2, 1, 0} {
		fill(a, m, data, i)
	}
	got, err := a.Finish()
	if err != nil || !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Fatalf("short last chunk: err %v, identical %v, capacity %d", err, bytes.Equal(got, data), cap(got))
	}
}

// TestAssemblerWrongDigestReturnsNoData: a chunk that does not hash to
// its Sum, and a manifest with no Sum to hash against, both end in
// ErrBadManifest with no data — the second before any buffer exists.
func TestAssemblerWrongDigestReturnsNoData(t *testing.T) {
	m, data := testManifest(t, 4*512, 4)
	if got, err := Assemble(m, Split(data, 512)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("summed manifest: err %v, identical %v", err, bytes.Equal(got, data))
	}
	wrong := *m
	wrong.Chunks = append([]ChunkInfo(nil), m.Chunks...)
	wrong.Chunks[2].Sum = m.Chunks[1].Sum
	if got, err := Assemble(&wrong, Split(data, 512)); !errors.Is(err, ErrBadManifest) || got != nil {
		t.Fatalf("wrong sum: Assemble = (%d bytes, %v), want (nil, ErrBadManifest)", len(got), err)
	}
	old := withoutSums(m)
	if a, err := NewAssembler(old); !errors.Is(err, ErrBadManifest) || a != nil {
		t.Fatalf("sum-less manifest: NewAssembler = (%v, %v), want (nil, ErrBadManifest)", a, err)
	}
	if got, err := Assemble(old, Split(data, 512)); !errors.Is(err, ErrBadManifest) || got != nil {
		t.Fatalf("sum-less manifest: Assemble = (%d bytes, %v), want (nil, ErrBadManifest)", len(got), err)
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

func TestAssemblerRejectsInvalidManifest(t *testing.T) {
	m, _ := testManifest(t, 4*512, 7)
	m.TotalSize++
	if _, err := NewAssembler(m); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("NewAssembler on an inconsistent manifest = %v, want ErrBadManifest", err)
	}
}

// TestAssembleMatchesReference runs Assemble and assembleReference over
// the table the package's Assemble tests use — round trip, short, nil
// and wrong-size chunks, corrupted content, a tampered sum, sums
// missing from some chunks or all, the empty file — and requires the
// same bytes and the same error class from both.
func TestAssembleMatchesReference(t *testing.T) {
	m, data := testManifest(t, 700, 8)
	pieces := Split(data, 512)
	corrupt := [][]byte{bytes.Clone(pieces[0]), pieces[1]}
	corrupt[0][3] ^= 1
	old := withoutSums(m)
	badSum := *m
	badSum.Chunks = append([]ChunkInfo(nil), m.Chunks...)
	badSum.Chunks[1].Sum[15] ^= 0x80
	mixed := *m
	mixed.Chunks = []ChunkInfo{m.Chunks[0], old.Chunks[1]}
	badTotal := *m
	badTotal.TotalSize++
	// BuildShare refuses empty data, and Validate a hand-written
	// manifest of it: no k is the one ParamsForSize picks for 0 bytes.
	empty := &Manifest{Plan: testPlan(), Chunks: []ChunkInfo{{FileID: 1, K: 1}}}
	empty.Chunks[0].Sum = empty.Chunks[0].SumOf(empty.Plan, nil)

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
		{"tampered sum", &badSum, pieces},
		{"sums on some chunks only", &mixed, pieces},
		{"no sums", old, pieces},
		{"invalid manifest", &badTotal, pieces},
		{"empty file", empty, [][]byte{{}}},
		{"empty file, nil chunk", empty, [][]byte{nil}},
	}
	wantClass := map[string]error{
		"corrupted content":        ErrBadManifest,
		"tampered sum":             ErrBadManifest,
		"sums on some chunks only": ErrBadManifest,
		"no sums":                  ErrBadManifest,
		"empty file":               ErrBadManifest,
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
