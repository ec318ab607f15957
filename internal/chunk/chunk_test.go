package chunk

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

func testPlan() Plan {
	// Small generations so tests stay fast.
	return Plan{FieldBits: gf.Bits8, M: 64, ChunkSize: 512}
}

func testSecret() []byte {
	s := make([]byte, rlnc.SecretLen)
	for i := range s {
		s[i] = byte(i)
	}
	return s
}

func TestSplit(t *testing.T) {
	data := make([]byte, 1000)
	pieces := Split(data, 512)
	if len(pieces) != 2 || len(pieces[0]) != 512 || len(pieces[1]) != 488 {
		t.Fatalf("Split lens = %d pieces", len(pieces))
	}
	if got := Split(data, 1000); len(got) != 1 {
		t.Errorf("exact split = %d pieces", len(got))
	}
	if got := Split(data, 2000); len(got) != 1 {
		t.Errorf("oversize chunk split = %d pieces", len(got))
	}
	if got := Split(nil, 512); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("empty data split = %v", got)
	}
	if got := Split(data, 0); got != nil {
		t.Errorf("zero chunk size = %v", got)
	}
}

func TestPlanValidate(t *testing.T) {
	if err := DefaultPlan().Validate(); err != nil {
		t.Errorf("DefaultPlan invalid: %v", err)
	}
	bad := []Plan{
		{FieldBits: 5, M: 8, ChunkSize: 64},
		{FieldBits: gf.Bits8, M: 0, ChunkSize: 64},
		{FieldBits: gf.Bits8, M: 8, ChunkSize: 0},
		{FieldBits: gf.Bits4, M: 3, ChunkSize: 64}, // unaligned
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated unexpectedly", i)
		}
	}
}

func TestDefaultPlanMatchesPaperExample(t *testing.T) {
	// Sec. III-C: k = 8, m = 32768, q = 2^32 for 1 MB chunks.
	p := DefaultPlan()
	f := gf.MustNew(p.FieldBits)
	params, err := rlnc.ParamsForSize(f, DefaultChunkSize, p.M)
	if err != nil {
		t.Fatal(err)
	}
	if params.K != 8 {
		t.Errorf("default plan k = %d, want 8", params.K)
	}
}

func TestBuildShareAndAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1300) // 3 generations of 512/512/276
	rng.Read(data)
	share, err := BuildShare("video.mpg", data, testPlan(), 100, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if share.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d", share.NumChunks())
	}
	if err := share.Manifest.Validate(); err != nil {
		t.Fatal(err)
	}
	if share.Manifest.Chunks[2].DataLen != 276 {
		t.Errorf("tail chunk len = %d", share.Manifest.Chunks[2].DataLen)
	}

	// Decode each generation from a single peer batch and reassemble.
	decoded := make([][]byte, share.NumChunks())
	batches, err := share.BatchForPeer(0, 1024) // n > k caps at k
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches {
		info := share.Manifest.Chunks[i]
		params, err := info.Params(share.Manifest.Plan)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := rlnc.NewDecoder(params, info.FileID, share.Secret, info.Digests)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range batch {
			if _, err := dec.Add(msg); err != nil {
				t.Fatal(err)
			}
		}
		decoded[i], err = dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := Assemble(&share.Manifest, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("assembled data mismatch")
	}
}

func TestBatchForPeerDeterministicDigests(t *testing.T) {
	data := make([]byte, 600)
	share1, err := BuildShare("a", data, testPlan(), 7, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	share2, err := BuildShare("a", data, testPlan(), 7, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := share1.BatchForPeer(3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := share2.BatchForPeer(3, 4); err != nil {
		t.Fatal(err)
	}
	d1 := share1.Manifest.Chunks[0].Digests
	d2 := share2.Manifest.Chunks[0].Digests
	if len(d1) == 0 || len(d1) != len(d2) {
		t.Fatalf("digest counts %d vs %d", len(d1), len(d2))
	}
	for id, d := range d1 {
		if d2[id] != d {
			t.Fatalf("digest for id %d differs", id)
		}
	}
}

// TestManifestValidateErrors: every row but "valid" breaks one rule of
// the one manifest format. The k rows are what keeps a forged manifest
// from sizing an Assembler's buffer: a 10-byte chunk claiming k = 2^40
// would have NewAssembler ask for 64 TiB at this plan.
func TestManifestValidateErrors(t *testing.T) {
	valid := func() *Manifest {
		m := &Manifest{Plan: testPlan(), TotalSize: 612, Chunks: []ChunkInfo{
			{FileID: 1, DataLen: 512, K: 8},
			{FileID: 2, DataLen: 100, K: 2},
		}}
		m.Chunks[0].Sum[0], m.Chunks[1].Sum[0] = 1, 1
		return m
	}
	cases := []struct {
		name   string
		mutate func(m *Manifest)
	}{
		{"valid", func(*Manifest) {}},
		{"no chunks", func(m *Manifest) { m.Chunks, m.TotalSize = nil, 0 }},
		{"short interior chunk", func(m *Manifest) { m.Chunks[0].DataLen, m.Chunks[0].K, m.TotalSize = 100, 2, 200 }},
		{"total mismatch", func(m *Manifest) { m.TotalSize = 999 }},
		{"no sum on the last chunk", func(m *Manifest) { m.Chunks[1].Sum = rlnc.Digest{} }},
		{"no sum on the first chunk", func(m *Manifest) { m.Chunks[0].Sum = rlnc.Digest{} }},
		{"no sum anywhere", func(m *Manifest) { m.Chunks[0].Sum, m.Chunks[1].Sum = rlnc.Digest{}, rlnc.Digest{} }},
		{"k far past the data", func(m *Manifest) {
			m.Chunks = m.Chunks[1:]
			m.Chunks[0].DataLen, m.Chunks[0].K, m.TotalSize = 10, 1<<40, 10
		}},
		{"k one past the data", func(m *Manifest) { m.Chunks[1].K = 3 }},
		{"k short of the data", func(m *Manifest) { m.Chunks[0].K = 7 }},
		{"zero k", func(m *Manifest) { m.Chunks[1].K = 0 }},
		{"empty chunk", func(m *Manifest) {
			m.Chunks = m.Chunks[:1]
			m.Chunks[0].DataLen, m.Chunks[0].K, m.TotalSize = 0, 1, 0
		}},
		{"negative length", func(m *Manifest) { m.Chunks[1].DataLen, m.TotalSize = -1, 511 }},
		{"m past MaxInt32", func(m *Manifest) { m.Plan.M = 1 << 61 }},
	}
	for _, tc := range cases {
		m := valid()
		tc.mutate(m)
		err := m.Validate()
		if tc.name == "valid" {
			if err != nil {
				t.Errorf("valid manifest rejected: %v", err)
			}
		} else if !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: Validate = %v, want ErrBadManifest", tc.name, err)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	data := make([]byte, 700)
	share, err := BuildShare("x", data, testPlan(), 1, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(&share.Manifest, [][]byte{make([]byte, 512)}); !errors.Is(err, ErrChunkMissing) {
		t.Errorf("missing chunk error = %v", err)
	}
	if _, err := Assemble(&share.Manifest, [][]byte{make([]byte, 512), nil}); !errors.Is(err, ErrChunkMissing) {
		t.Errorf("nil chunk error = %v", err)
	}
	if _, err := Assemble(&share.Manifest, [][]byte{make([]byte, 512), make([]byte, 10)}); !errors.Is(err, ErrBadManifest) {
		t.Errorf("wrong-size chunk error = %v", err)
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	data := make([]byte, 600)
	share, err := BuildShare("doc.pdf", data, testPlan(), 50, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := share.BatchForPeer(0, 2); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(share.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Name != "doc.pdf" || got.TotalSize != 600 || len(got.Chunks) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.DigestCount() != share.Manifest.DigestCount() {
		t.Errorf("digest count %d vs %d", got.DigestCount(), share.Manifest.DigestCount())
	}
	for i, c := range got.Chunks {
		if c.Sum == (rlnc.Digest{}) || c.Sum != share.Manifest.Chunks[i].Sum {
			t.Errorf("chunk %d: sum %v came back as %v", i, share.Manifest.Chunks[i].Sum, c.Sum)
		}
	}
	if bytes.Contains(blob, []byte("contentMd5")) {
		t.Errorf("a new manifest still writes contentMd5: %s", blob)
	}
}

func TestNewFileIDAndSecret(t *testing.T) {
	a, err := NewFileID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFileID()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two random file ids collided (astronomically unlikely)")
	}
	s, err := NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != rlnc.SecretLen {
		t.Errorf("secret len = %d", len(s))
	}
}

func TestBuildShareValidation(t *testing.T) {
	if _, err := BuildShare("x", nil, testPlan(), 1, testSecret()); err == nil {
		t.Error("empty data accepted")
	}
	badPlan := Plan{FieldBits: 9, M: 8, ChunkSize: 64}
	if _, err := BuildShare("x", make([]byte, 10), badPlan, 1, testSecret()); err == nil {
		t.Error("bad plan accepted")
	}
	if _, err := BuildShare("x", make([]byte, 10), testPlan(), 1, nil); err == nil {
		t.Error("empty secret accepted")
	}
}

func TestShareEncoderAccessor(t *testing.T) {
	share, err := BuildShare("x", make([]byte, 600), testPlan(), 9, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if share.Encoder(0) == nil || share.Encoder(1) == nil {
		t.Fatal("Encoder returned nil")
	}
	if share.Encoder(0).FileID() != share.Manifest.Chunks[0].FileID {
		t.Error("Encoder file-id mismatch")
	}
}

func TestChunkInfoParamsError(t *testing.T) {
	info := ChunkInfo{FileID: 1, DataLen: 10, K: 0}
	if _, err := info.Params(testPlan()); err == nil {
		t.Error("k=0 params accepted")
	}
	badPlan := Plan{FieldBits: 9, M: 8, ChunkSize: 64}
	info.K = 1
	if _, err := info.Params(badPlan); err == nil {
		t.Error("bad field params accepted")
	}
}

func TestChangedChunksInPackage(t *testing.T) {
	oldData := make([]byte, 1200)
	newData := bytes.Clone(oldData)
	newData[600] ^= 1
	got, err := ChangedChunks(oldData, newData, 512)
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Errorf("ChangedChunks = %v, %v", got, err)
	}
}
