package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

func startDHT(t *testing.T) *dht.Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := dht.NewNode(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestShareFetchViaDHT drives the trackerless recipe end to end: share
// ring-placed (-replicas) onto a subset of the peers and announce
// through the DHT, then fetch resolving holders through another DHT
// node.
func TestShareFetchViaDHT(t *testing.T) {
	dir := t.TempDir()
	keyPath := filepath.Join(dir, "user.key")
	var discard bytes.Buffer
	if err := run([]string{"keygen", "-out", keyPath}, &discard); err != nil {
		t.Fatal(err)
	}

	boot := startDHT(t)
	second := startDHT(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := second.Join(ctx, boot.Addr()); err != nil {
		t.Fatal(err)
	}

	var addrs []string
	for i := 0; i < 4; i++ {
		id, err := auth.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		node, err := peer.New(peer.Config{Identity: id, Store: store.NewMemory()})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr().String())
	}

	filePath := filepath.Join(dir, "d.bin")
	data := make([]byte, 20<<10)
	rand.New(rand.NewSource(4)).Read(data)
	if err := os.WriteFile(filePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	handlePath := filepath.Join(dir, "d.handle")
	var shareOut bytes.Buffer
	err := run([]string{"share", "-key", keyPath, "-file", filePath,
		"-peers", strings.Join(addrs, ","), "-out", handlePath,
		"-replicas", "3", "-dht", boot.Addr()}, &shareOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shareOut.String(), "announced") {
		t.Errorf("share output: %q", shareOut.String())
	}
	m := regexp.MustCompile(`secret \(keep private!\): ([0-9a-f]+)`).FindStringSubmatch(shareOut.String())
	if m == nil {
		t.Fatal("no secret printed")
	}
	h, err := core.LoadHandleFile(handlePath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Manifest.Chunks {
		if got := h.PeersForChunk(i); len(got) != 3 {
			t.Fatalf("chunk %d placed on %v, want 3 holders", i, got)
		}
	}
	outPath := filepath.Join(dir, "d.out")
	err = run([]string{"fetch", "-key", keyPath, "-handle", handlePath,
		"-secret", m[1], "-out", outPath, "-dht", second.Addr()}, &discard)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("DHT-resolved CLI fetch mismatch")
	}
}
