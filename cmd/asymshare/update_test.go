package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"asymshare/internal/auth"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

// cliShare starts one memory-store peer, shares a random file of size
// bytes to it through the CLI, and returns the paths and secret later
// commands need, with the peer and its store for injecting damage.
type cliShare struct {
	key, handle, file, secret string
	peer                      *peer.Node
	store                     *store.Memory
}

func shareToOnePeer(t *testing.T, size int, seed int64) cliShare {
	t.Helper()
	dir := t.TempDir()
	sh := cliShare{
		key:    filepath.Join(dir, "user.key"),
		handle: filepath.Join(dir, "f.handle"),
		file:   filepath.Join(dir, "f.bin"),
		store:  store.NewMemory(),
	}
	var discard bytes.Buffer
	if err := run([]string{"keygen", "-out", sh.key}, &discard); err != nil {
		t.Fatal(err)
	}
	id, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	node, err := peer.New(peer.Config{Identity: id, Store: sh.store})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	sh.peer = node

	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	if err := os.WriteFile(sh.file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var shareOut bytes.Buffer
	err = run([]string{"share", "-key", sh.key, "-file", sh.file, "-peers", node.Addr().String(), "-out", sh.handle}, &shareOut)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`secret \(keep private!\): ([0-9a-f]+)`).FindStringSubmatch(shareOut.String())
	if m == nil {
		t.Fatal("no secret printed")
	}
	sh.secret = m[1]
	return sh
}

// spotcheck runs the spotcheck command and returns its output.
func (sh cliShare) spotcheck(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"spotcheck", "-key", sh.key, "-handle", sh.handle, "-secret", sh.secret}, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// repairShare runs the repair command with file as the original and
// returns the number of messages it re-uploaded.
func (sh cliShare) repair(t *testing.T, file string) int {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"repair", "-key", sh.key, "-handle", sh.handle, "-secret", sh.secret, "-file", file}, &out); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(out.String(), "re-uploaded %d messages", &n); err != nil {
		t.Fatalf("repair output %q: %v", out.String(), err)
	}
	return n
}

// TestUpdateAndSpotCheckSubcommands drives share -> update -> fetch ->
// spotcheck end to end through the CLI: the digests update wrote into
// the handle are the ones the peer now proves.
func TestUpdateAndSpotCheckSubcommands(t *testing.T) {
	sh := shareToOnePeer(t, 20<<10, 1)
	oldData, err := os.ReadFile(sh.file)
	if err != nil {
		t.Fatal(err)
	}

	// Edit the file in place and push the delta.
	newData := bytes.Clone(oldData)
	copy(newData[5000:5100], bytes.Repeat([]byte{0x42}, 100))
	newPath := filepath.Join(filepath.Dir(sh.file), "v2.bin")
	if err := os.WriteFile(newPath, newData, 0o644); err != nil {
		t.Fatal(err)
	}
	var updOut bytes.Buffer
	err = run([]string{"update", "-key", sh.key, "-handle", sh.handle,
		"-secret", sh.secret, "-old", sh.file, "-new", newPath}, &updOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(updOut.String(), "patched 1 chunks") {
		t.Errorf("update output: %q", updOut.String())
	}

	// Fetch returns the new version.
	outPath := filepath.Join(filepath.Dir(sh.file), "v.out")
	var discard bytes.Buffer
	if err := run([]string{"fetch", "-key", sh.key, "-handle", sh.handle,
		"-secret", sh.secret, "-out", outPath}, &discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("fetched file is not the updated version")
	}

	if out := sh.spotcheck(t); !strings.Contains(out, "all retention audits passed") {
		t.Errorf("spotcheck after update: %q", out)
	}
}

// TestSumlessHandleRefused: a handle written before chunks carried
// sums — no "sum" on any chunk, a whole-file "contentMd5" instead — is
// refused at load by every command that reads a handle. Each exits
// non-zero naming the handle and saying to share again, writes no
// output, and leaves the handle byte-identical.
func TestSumlessHandleRefused(t *testing.T) {
	sh := shareToOnePeer(t, 3000, 4)
	data, err := os.ReadFile(sh.file)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(sh.handle)
	if err != nil {
		t.Fatal(err)
	}
	// UseNumber: a file-id is a uint64 that a float64 would round.
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	manifest := doc["manifest"].(map[string]any)
	for _, c := range manifest["chunks"].([]any) {
		delete(c.(map[string]any), "sum")
	}
	digest := md5.Sum(data)
	manifest["contentMd5"] = hex.EncodeToString(digest[:])
	old, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sh.handle, old, 0o644); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Dir(sh.file)
	outPath := filepath.Join(dir, "back.bin")
	newPath := filepath.Join(dir, "v2.bin")
	if err := os.WriteFile(newPath, append([]byte{data[0] ^ 1}, data[1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{"-key", sh.key, "-handle", sh.handle, "-secret", sh.secret}
	for _, args := range [][]string{
		append([]string{"fetch", "-out", outPath}, common...),
		append([]string{"fetch", "-out", outPath, "-dht", sh.peer.Addr().String()}, common...),
		append([]string{"update", "-old", sh.file, "-new", newPath}, common...),
		append([]string{"spotcheck"}, common...),
		append([]string{"repair", "-file", sh.file}, common...),
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), sh.handle) || !strings.Contains(err.Error(), "share the file again") {
			t.Errorf("%s %s: err = %v, want a refusal naming the handle", args[0], args[1], err)
		}
		if after, err := os.ReadFile(sh.handle); err != nil || !bytes.Equal(after, old) {
			t.Errorf("%s %s: the handle changed on disk (%v)", args[0], args[1], err)
		}
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Errorf("a refused fetch wrote -out (%v)", err)
	}
}

func TestUpdateListMissingFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"update", "-key", "k"}, &out); err == nil {
		t.Error("update without required flags accepted")
	}
	// list and audit are retired: spotcheck is the one retention check;
	// and so are storage contracts: repair is the one repair path.
	for _, retired := range []string{"list", "audit", "contracts"} {
		if err := run([]string{retired, "-key", "k"}, &out); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("retired %s command: %v, want unknown command", retired, err)
		}
	}
	for _, retired := range []string{"-capacity", "-contracts"} {
		if err := run([]string{"serve", retired, "1"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("retired serve %s flag: %v, want flag provided but not defined", retired, err)
		}
	}
}

// TestAuditRepairSubcommands: a peer loses its store; spotcheck says
// so, repair re-sends the lost batch, and spotcheck passes again.
func TestAuditRepairSubcommands(t *testing.T) {
	sh := shareToOnePeer(t, 12<<10, 2)
	if out := sh.spotcheck(t); !strings.Contains(out, "all retention audits passed") {
		t.Errorf("spotcheck of a fresh share: %q", out)
	}

	for _, fid := range sh.store.Files() {
		if err := sh.store.Drop(fid); err != nil {
			t.Fatal(err)
		}
	}
	if out := sh.spotcheck(t); !strings.Contains(out, "retention DEGRADED") {
		t.Errorf("spotcheck after loss: %q", out)
	}
	if n := sh.repair(t, sh.file); n == 0 {
		t.Error("repair re-uploaded nothing after loss")
	}
	if out := sh.spotcheck(t); !strings.Contains(out, "all retention audits passed") {
		t.Errorf("spotcheck after repair: %q", out)
	}
}

// TestRepairSubcommandMendsCorruptedBatch: the peer keeps every message
// id with garbage bytes, so a count of what it stores looks whole.
// spotcheck flags it, repair re-sends it, and spotcheck passes again.
func TestRepairSubcommandMendsCorruptedBatch(t *testing.T) {
	sh := shareToOnePeer(t, 12<<10, 4)
	for _, fid := range sh.store.Files() {
		msgs, err := sh.store.Messages(fid)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			bad := m.Clone()
			bad.Payload[0] ^= 0xFF
			if err := sh.store.Put(bad); err != nil {
				t.Fatal(err)
			}
		}
	}
	if out := sh.spotcheck(t); !strings.Contains(out, "retention DEGRADED") {
		t.Errorf("spotcheck after in-place corruption: %q", out)
	}
	if n := sh.repair(t, sh.file); n == 0 {
		t.Error("repair re-uploaded nothing for a corrupted batch")
	}
	if out := sh.spotcheck(t); !strings.Contains(out, "all retention audits passed") {
		t.Errorf("spotcheck after repair: %q", out)
	}
}

// TestRepairSubcommandNamesUnreachableHolder: with the only holder
// down, repair prints what it re-sent, nothing, and exits with an error
// naming the holder.
func TestRepairSubcommandNamesUnreachableHolder(t *testing.T) {
	sh := shareToOnePeer(t, 12<<10, 5)
	addr := sh.peer.Addr().String()
	sh.peer.Close()
	var out bytes.Buffer
	err := run([]string{"repair", "-key", sh.key, "-handle", sh.handle, "-secret", sh.secret, "-file", sh.file}, &out)
	if err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("repair with its holder down: err = %v, want one naming %s", err, addr)
	}
	if !strings.Contains(out.String(), "re-uploaded 0 messages") {
		t.Errorf("repair output %q, want the re-uploaded count", out.String())
	}
}

func TestPlacedShareSubcommand(t *testing.T) {
	dir := t.TempDir()
	keyPath := filepath.Join(dir, "user.key")
	var discard bytes.Buffer
	if err := run([]string{"keygen", "-out", keyPath}, &discard); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 3; i++ {
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
	filePath := filepath.Join(dir, "p.bin")
	data := make([]byte, 8<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if err := os.WriteFile(filePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	handlePath := filepath.Join(dir, "p.handle")
	var shareOut bytes.Buffer
	err := run([]string{"share", "-key", keyPath, "-file", filePath,
		"-peers", strings.Join(addrs, ","), "-out", handlePath, "-replicas", "2"}, &shareOut)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`secret \(keep private!\): ([0-9a-f]+)`).FindStringSubmatch(shareOut.String())
	if m == nil {
		t.Fatal("no secret printed")
	}
	outPath := filepath.Join(dir, "p.out")
	if err := run([]string{"fetch", "-key", keyPath, "-handle", handlePath,
		"-secret", m[1], "-out", outPath}, &discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("placed share fetch mismatch")
	}
}
