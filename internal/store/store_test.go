package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asymshare/internal/rlnc"
)

func msg(fileID, id uint64, payload ...byte) *rlnc.Message {
	return &rlnc.Message{FileID: fileID, MessageID: id, Payload: payload}
}

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	if _, err := s.Messages(1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("empty store Messages error = %v", err)
	}
	if got := s.Count(1); got != 0 {
		t.Errorf("empty Count = %d", got)
	}
	if err := s.Put(msg(1, 2, 0xA, 0xB)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(msg(1, 1, 0xC)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(msg(9, 5, 0xD)); err != nil {
		t.Fatal(err)
	}
	msgs, err := s.Messages(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].MessageID != 1 || msgs[1].MessageID != 2 {
		t.Fatalf("Messages(1) = %v", msgs)
	}
	if got := s.Count(1); got != 2 {
		t.Errorf("Count(1) = %d", got)
	}
	files := s.Files()
	if len(files) != 2 || files[0] != 1 || files[1] != 9 {
		t.Errorf("Files() = %v", files)
	}
	// Overwrite same id.
	if err := s.Put(msg(1, 2, 0xFF)); err != nil {
		t.Fatal(err)
	}
	msgs, err = s.Messages(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || !bytes.Equal(msgs[1].Payload, []byte{0xFF}) {
		t.Errorf("overwrite failed: %v", msgs)
	}
	if err := s.Drop(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Messages(1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("after Drop error = %v", err)
	}
	if got := s.Count(9); got != 1 {
		t.Errorf("Count(9) after Drop(1) = %d", got)
	}
}

func TestMemoryBasics(t *testing.T) { testStoreBasics(t, NewMemory()) }

func TestDiskBasics(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreBasics(t, d)
}

func TestMemoryPutCopies(t *testing.T) {
	s := NewMemory()
	original := msg(1, 1, 7, 8)
	if err := s.Put(original); err != nil {
		t.Fatal(err)
	}
	original.Payload[0] = 0
	msgs, err := s.Messages(1)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].Payload[0] != 7 {
		t.Error("Put did not copy the message payload")
	}
}

func TestMemoryPutNil(t *testing.T) {
	if err := NewMemory().Put(nil); err == nil {
		t.Error("nil message accepted")
	}
}

func TestMemoryTotalMessages(t *testing.T) {
	s := NewMemory()
	for i := uint64(0); i < 5; i++ {
		if err := s.Put(msg(i%2, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TotalMessages(); got != 5 {
		t.Errorf("TotalMessages = %d", got)
	}
}

func TestMemoryConcurrentAccess(t *testing.T) {
	s := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Put(msg(uint64(g), uint64(i), byte(i))); err != nil {
					t.Error(err)
					return
				}
				s.Count(uint64(g))
				s.Files()
			}
		}(g)
	}
	wg.Wait()
	if got := s.TotalMessages(); got != 800 {
		t.Errorf("TotalMessages = %d, want 800", got)
	}
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*rlnc.Message{
		msg(0xABCD, 1, 1, 2, 3),
		msg(0xABCD, 2, 4, 5, 6),
		msg(0xEF01, 7, 9),
	} {
		if err := d.Put(m); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := reopened.Messages(0xABCD)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || !bytes.Equal(msgs[0].Payload, []byte{1, 2, 3}) {
		t.Fatalf("reloaded messages: %v", msgs)
	}
	if got := reopened.Count(0xEF01); got != 1 {
		t.Errorf("Count(0xEF01) = %d", got)
	}
	files := reopened.Files()
	if len(files) != 2 {
		t.Errorf("Files = %v", files)
	}
}

func TestDiskDropRemovesFile(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(msg(0x10, 1, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "10.dat")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("data file missing: %v", err)
	}
	if err := d.Drop(0x10); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("data file still present after Drop: %v", err)
	}
	// Dropping twice is fine.
	if err := d.Drop(0x10); err != nil {
		t.Errorf("second Drop: %v", err)
	}
}

func TestDiskCorruptFile(t *testing.T) {
	// A corrupt data file must not brick the store: it is quarantined as
	// `<name>.corrupt` and the store opens without it.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ff.dat"), []byte{0, 0, 0, 9, 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("corrupt file must quarantine, not fail open: %v", err)
	}
	if got := d.Files(); len(got) != 0 {
		t.Errorf("Files = %v, want empty", got)
	}
	if got := d.Recovery().QuarantinedFiles; got != 1 {
		t.Errorf("QuarantinedFiles = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "ff.dat.corrupt")); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ff.dat")); !os.IsNotExist(err) {
		t.Errorf("original corrupt file still present: %v", err)
	}
}

func TestDiskIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.dat"), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Files(); len(got) != 0 {
		t.Errorf("Files = %v, want empty", got)
	}
}

func TestGetMessage(t *testing.T) {
	for _, s := range []Store{NewMemory(), mustDisk(t)} {
		if _, err := s.Get(1, 1); !errors.Is(err, ErrUnknownFile) {
			t.Errorf("Get on empty store error = %v", err)
		}
		if err := s.Put(msg(1, 7, 0xAA, 0xBB)); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, []byte{0xAA, 0xBB}) {
			t.Fatalf("Get payload = %x", got.Payload)
		}
		// The returned message is a copy.
		got.Payload[0] = 0
		again, err := s.Get(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if again.Payload[0] != 0xAA {
			t.Error("Get returned aliased storage")
		}
		if _, err := s.Get(1, 8); !errors.Is(err, ErrUnknownFile) {
			t.Errorf("Get unknown message error = %v", err)
		}
	}
}

func mustDisk(t *testing.T) *Disk {
	t.Helper()
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskDir(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dir() != dir {
		t.Errorf("Dir = %q, want %q", d.Dir(), dir)
	}
}
