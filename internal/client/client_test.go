package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

func identity(t *testing.T, b byte) *auth.Identity {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func testSecret() []byte {
	s := make([]byte, rlnc.SecretLen)
	for i := range s {
		s[i] = byte(i + 3)
	}
	return s
}

func startPeer(t *testing.T, seed byte, st store.Store) *peer.Node {
	t.Helper()
	if st == nil {
		st = store.NewMemory()
	}
	n, err := peer.New(peer.Config{Identity: identity(t, seed), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func testPlan() chunk.Plan {
	return chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}
}

// buildAndDisseminate shares data across the given number of peers and
// returns the manifest and peer addresses.
func buildAndDisseminate(t *testing.T, c *client.Client, data []byte, peers int) (*chunk.Manifest, []string) {
	t.Helper()
	share, err := chunk.BuildShare("stream.bin", data, testPlan(), 1000, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var addrs []string
	for i := 0; i < peers; i++ {
		node := startPeer(t, byte(100+i), nil)
		batches, err := share.BatchForPeer(i, 1024)
		if err != nil {
			t.Fatal(err)
		}
		var flat []*rlnc.Message
		for _, b := range batches {
			flat = append(flat, b...)
		}
		if err := c.Disseminate(ctx, node.Addr().String(), flat); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, node.Addr().String())
	}
	return &share.Manifest, addrs
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New(nil, nil); err == nil {
		t.Error("nil identity accepted")
	}
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == "" {
		t.Error("empty fingerprint")
	}
}

func TestStreamFileInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 5000) // 5 chunks of 1024 (last 904)
	rng.Read(data)
	c, err := client.New(identity(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, addrs := buildAndDisseminate(t, c, data, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stream, err := c.StreamFile(ctx, addrs, manifest, testSecret(), client.StreamOptions{Prefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	var got []byte
	for want := 0; ; want++ {
		idx, piece, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if idx != want {
			t.Fatalf("chunk %d delivered out of order (want %d)", idx, want)
		}
		got = append(got, piece...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed data mismatch")
	}
	stats := stream.Stats()
	if stats.Innovative == 0 || len(stats.BytesFrom) == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
	// Next after EOF keeps returning EOF.
	if _, _, err := stream.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("post-EOF Next = %v", err)
	}
}

func TestStreamReader(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 3100)
	rng.Read(data)
	c, err := client.New(identity(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, addrs := buildAndDisseminate(t, c, data, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stream, err := c.StreamFile(ctx, addrs, manifest, testSecret(), client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := stream.Reader()
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reader data mismatch")
	}
	// Read after EOF stays EOF.
	var tiny [4]byte
	if _, err := r.Read(tiny[:]); !errors.Is(err, io.EOF) {
		t.Errorf("post-EOF Read = %v", err)
	}
}

func TestStreamCloseAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 4096)
	rng.Read(data)
	c, err := client.New(identity(t, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, addrs := buildAndDisseminate(t, c, data, 1)
	stream, err := c.StreamFile(context.Background(), addrs, manifest, testSecret(), client.StreamOptions{Prefetch: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

func TestStreamFileValidation(t *testing.T) {
	c, err := client.New(identity(t, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &chunk.Manifest{}
	if _, err := c.StreamFile(context.Background(), []string{"x"}, bad, testSecret(), client.StreamOptions{}); err == nil {
		t.Error("invalid manifest accepted")
	}
	data := make([]byte, 100)
	share, err := chunk.BuildShare("x", data, testPlan(), 1, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamFile(context.Background(), nil, &share.Manifest, testSecret(), client.StreamOptions{}); !errors.Is(err, client.ErrNoPeers) {
		t.Errorf("no peers error = %v", err)
	}
}

func TestPartialStoragePeers(t *testing.T) {
	// Sec. III-D: "some peers may choose to conserve storage space by
	// storing k' < k messages ... there would have to be other
	// accessible peers with at least k-k' messages to make up the
	// deficit". Two peers each holding half a batch must jointly serve
	// a decode, and one alone must fail.
	rng := rand.New(rand.NewSource(4))
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), 8, 64, 8*64)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, params.DataLen)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 11, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	halfA, err := enc.BatchForPeer(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	halfB, err := enc.BatchForPeer(1, 4)
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.New(identity(t, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nodeA := startPeer(t, 120, nil)
	nodeB := startPeer(t, 121, nil)
	if err := c.Disseminate(ctx, nodeA.Addr().String(), halfA); err != nil {
		t.Fatal(err)
	}
	if err := c.Disseminate(ctx, nodeB.Addr().String(), halfB); err != nil {
		t.Fatal(err)
	}

	// One partial peer is not enough.
	_, _, err = c.Fetch(ctx, client.FetchRequest{
		Peers:  []string{nodeA.Addr().String()},
		Params: params,
		FileID: 11,
		Secret: testSecret(),
	})
	if !errors.Is(err, client.ErrIncomplete) {
		t.Errorf("single partial peer error = %v, want ErrIncomplete", err)
	}
	// Together they decode.
	got, _, err := c.Fetch(ctx, client.FetchRequest{
		Peers:  []string{nodeA.Addr().String(), nodeB.Addr().String()},
		Params: params,
		FileID: 11,
		Secret: testSecret(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("partial-storage decode mismatch")
	}
}

func TestFetchStatsEffectiveRate(t *testing.T) {
	var s client.FetchStats
	if got := s.EffectiveRate(100); got != 0 {
		t.Errorf("zero elapsed rate = %v", got)
	}
	s.Elapsed = 2 * time.Second
	if got := s.EffectiveRate(100); got != 50 {
		t.Errorf("rate = %v, want 50", got)
	}
}

func TestFetchFileWithinClientPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 2100)
	rng.Read(data)
	c, err := client.New(identity(t, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, addrs := buildAndDisseminate(t, c, data, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, stats, err := c.FetchFile(ctx, addrs, manifest, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("FetchFile mismatch")
	}
	if stats.Innovative == 0 {
		t.Error("stats empty")
	}
	// Invalid manifest is rejected up front.
	if _, _, err := c.FetchFile(ctx, addrs, &chunk.Manifest{}, testSecret()); err == nil {
		t.Error("invalid manifest accepted")
	}
}

func TestFetchGenerationAllPeersUnreachable(t *testing.T) {
	c, err := client.New(identity(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), 4, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	// Two dead addresses: the error must mention the dial failures.
	_, _, err = c.Fetch(ctx, client.FetchRequest{
		Peers:  []string{"127.0.0.1:1", "127.0.0.1:2"},
		Params: params,
		FileID: 1,
		Secret: testSecret(),
	})
	if !errors.Is(err, client.ErrIncomplete) {
		t.Fatalf("error = %v, want ErrIncomplete", err)
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Errorf("error does not surface peer failures: %v", err)
	}
}
