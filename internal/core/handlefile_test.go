package core_test

// A handle file has one format: every chunk of its manifest carries a
// Sum. LoadHandleFile refuses anything else, so no command starts work
// on a handle whose chunks nothing can check.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"asymshare/internal/chunk"
	"asymshare/internal/core"
	"asymshare/internal/fsx"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// goldenHandle wraps the write path's golden manifest in a handle.
func goldenHandle(t testing.TB) *core.Handle {
	t.Helper()
	blob, err := os.ReadFile("testdata/golden_manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	h := &core.Handle{Peers: []string{"127.0.0.1:1"}}
	if err := json.Unmarshal(blob, &h.Manifest); err != nil {
		t.Fatal(err)
	}
	return h
}

// stripSums turns h into the handle a share made before chunks carried
// sums: no Sum on any chunk.
func stripSums(h *core.Handle) {
	for i := range h.Manifest.Chunks {
		h.Manifest.Chunks[i].Sum = rlnc.Digest{}
	}
}

func TestLoadHandleRefusesSumlessManifest(t *testing.T) {
	fsys := fsx.NewErrFS(1)
	h := goldenHandle(t)
	if err := core.SaveHandleFileFS(fsys, "new.handle", h); err != nil {
		t.Fatal(err)
	}
	if got, err := core.LoadHandleFileFS(fsys, "new.handle"); err != nil || len(got.Manifest.Chunks) != len(h.Manifest.Chunks) {
		t.Fatalf("summed handle: %v", err)
	}

	stripSums(h)
	if err := core.SaveHandleFileFS(fsys, "old.handle", h); err != nil {
		t.Fatal(err)
	}
	before, err := fsx.ReadFile(fsys, "old.handle")
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadHandleFileFS(fsys, "old.handle")
	if !errors.Is(err, chunk.ErrBadManifest) || got != nil {
		t.Fatalf("sum-less handle: (%v, %v), want (nil, ErrBadManifest)", got, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "old.handle") || !strings.Contains(msg, "share the file again") {
		t.Errorf("error %q does not name the handle or say to share again", msg)
	}
	after, err := fsx.ReadFile(fsys, "old.handle")
	if err != nil || !bytes.Equal(before, after) {
		t.Errorf("refused handle changed on disk (%v)", err)
	}
}

// FuzzLoadHandle feeds arbitrary bytes to LoadHandleFileFS. It must not
// panic, and any handle it accepts has a Sum on every chunk and the k
// that fits each chunk's dataLen — the two facts the read path sizes
// and checks by. (No NewAssembler here: an accepted handle may claim a
// legitimately huge totalSize.) The seeds are one-chunk handles, small
// enough that minimizing a new input does not eat the fuzzing time: a
// valid one, the same without its sum, one whose k claims 2^40 vectors
// for 10 bytes, and one whose m overflows a vector length.
func FuzzLoadHandle(f *testing.F) {
	const plan = `"plan":{"FieldBits":8,"M":128,"ChunkSize":1024}`
	const sum = `"sum":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	f.Add([]byte(`{"manifest":{"totalSize":10,` + plan + `,"chunks":[{"fileId":1,"dataLen":10,"k":1,` + sum + `}]},"peers":["a:1"]}`))
	f.Add([]byte(`{"manifest":{"totalSize":10,` + plan + `,"chunks":[{"fileId":1,"dataLen":10,"k":1}]},"peers":["a:1"]}`))
	f.Add([]byte(`{"manifest":{"totalSize":10,` + plan + `,"chunks":[{"fileId":1,"dataLen":10,"k":1099511627776,` + sum + `}]},"peers":["a:1"]}`))
	f.Add([]byte(`{"manifest":{"plan":{"FieldBits":8,"M":2305843009213693952,"ChunkSize":1}}}`))
	f.Add([]byte{})
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := fsx.NewErrFS(1)
		if err := fsx.WriteFileAtomic(fsys, "h.handle", data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := core.LoadHandleFileFS(fsys, "h.handle")
		if err != nil {
			return
		}
		m := &h.Manifest
		vecBytes := gf.VecBytes(m.Plan.FieldBits, m.Plan.M)
		for i, c := range m.Chunks {
			if c.Sum == (rlnc.Digest{}) {
				t.Fatalf("accepted chunk %d without a sum", i)
			}
			whole, part := c.DataLen/vecBytes, c.DataLen%vecBytes
			if c.DataLen <= 0 || (part == 0 && c.K != whole) || (part != 0 && c.K != whole+1) {
				t.Fatalf("accepted chunk %d with dataLen %d and k %d (vectors of %d bytes)", i, c.DataLen, c.K, vecBytes)
			}
		}
	})
}
