package core

// The write path's golden: what ShareFile runs — BuildShare, streamShare
// onto real peers — with the two random draws (secret, base file-id)
// pinned, so the manifest it publishes can be compared byte for byte
// with testdata/golden_manifest.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

func goldenIdentity(t *testing.T, b byte) *auth.Identity {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// goldenShare shares the pinned file onto three in-memory peers.
func goldenShare(t *testing.T, ctx context.Context) (*System, *Handle, []byte, []byte, []*store.Memory) {
	t.Helper()
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 256, ChunkSize: 8192} // k = 8: full lane groups
	secret := []byte("golden-manifest-secret-0123456789")
	const baseID = 0x00C0FFEE00000000
	data := make([]byte, 5*plan.ChunkSize+3000) // the last generation is short: k = 3
	rand.New(rand.NewSource(2006)).Read(data)

	sys, err := NewSystem(goldenIdentity(t, 90), nil, WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var stores []*store.Memory
	for i := byte(0); i < 3; i++ {
		st := store.NewMemory()
		n, err := peer.New(peer.Config{Identity: goldenIdentity(t, 91+i), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr().String())
		stores = append(stores, st)
	}
	share, err := chunk.BuildShare("golden.bin", data, plan, baseID, secret)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []shareJob
	for c := 0; c < share.NumChunks(); c++ {
		for i := range addrs {
			jobs = append(jobs, shareJob{dest: i, chunk: c, rank: i})
		}
	}
	if _, _, err := streamShare(ctx, sys.client, share, addrs, jobs); err != nil {
		t.Fatal(err)
	}
	return sys, &Handle{Manifest: share.Manifest, Peers: addrs}, secret, data, stores
}

// readManifest loads a manifest fixture.
func readManifest(t *testing.T, path string) (*chunk.Manifest, []byte) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m chunk.Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return &m, blob
}

func TestShareManifestMatchesGolden(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sys, h, secret, data, stores := goldenShare(t, ctx)

	got, err := json.Marshal(&h.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden, want := readManifest(t, "testdata/golden_manifest.json")
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest differs from the golden:\n%s", got)
	}
	if n := h.Manifest.DigestCount(); n != 3*(5*8+3) {
		t.Fatalf("manifest records %d digests", n)
	}

	pieces := chunk.Split(data, golden.Plan.ChunkSize)
	for i, c := range golden.Chunks {
		if c.Sum != c.SumOf(golden.Plan, pieces[i]) {
			t.Errorf("chunk %d: the golden's sum %v is not its plaintext's", i, c.Sum)
		}
	}

	back, stats, err := sys.FetchFile(ctx, h, secret)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("fetch of the golden share: %v, identical=%v", err, bytes.Equal(back, data))
	}
	if stats.Rejected != 0 {
		t.Errorf("%d of the golden share's own messages were rejected", stats.Rejected)
	}

	// A forged message — right identifiers, one payload bit flipped at
	// the peer — is still caught by its recorded digest. Every peer's
	// first message of the generation is forged, so whichever stream
	// delivers first delivers a forgery.
	fileID := h.Manifest.Chunks[2].FileID
	for _, st := range stores {
		held, err := st.Messages(fileID)
		if err != nil {
			t.Fatal(err)
		}
		forged := held[0].Clone()
		forged.Payload[17] ^= 0x04
		if err := st.Put(forged); err != nil {
			t.Fatal(err)
		}
	}
	back, stats, err = sys.FetchFile(ctx, h, secret)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("fetch around a forged message: %v, identical=%v", err, bytes.Equal(back, data))
	}
	if stats.Rejected == 0 {
		t.Error("the forged message was not rejected")
	}
}
