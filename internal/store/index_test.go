package store

// Tests for the disk store's offset index: payloads stay on disk, so
// the heap does not grow with what is stored; every read is checked
// against the record it lands on; and the index follows the journal
// through failed appends and compactions without a reopen.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"asymshare/internal/fsx"
	"asymshare/internal/rlnc"
)

// pageCacheFS is the real filesystem without the device flush, so a
// test that writes tens of MiB does not wait on fsync.
type pageCacheFS struct{ fsx.FS }

func (p pageCacheFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (pageCacheFS) SyncDir(string) error { return nil }

type noSyncFile struct{ fsx.File }

func (noSyncFile) Sync() error { return nil }

// liveHeap returns the heap in use once the garbage is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDiskHeapIndependentOfStoredBytes: 64 MiB stored across 64
// file-ids leave the heap within 2 MiB of the empty store's, and so
// does the recovery scan that reopens them.
func TestDiskHeapIndependentOfStoredBytes(t *testing.T) {
	const (
		files     = 64
		perFile   = 8
		payload   = 128 << 10
		maxGrowth = 2 << 20
	)
	dir := t.TempDir()
	opts := DiskOptions{FS: pageCacheFS{fsx.OS}}
	in := &rlnc.Message{Payload: make([]byte, payload)}
	d, err := OpenDiskWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	empty := liveHeap()
	for fid := uint64(1); fid <= files; fid++ {
		for id := uint64(0); id < perFile; id++ {
			in.FileID, in.MessageID = fid, id
			in.Payload[0], in.Payload[payload-1] = byte(fid), byte(id)
			if err := d.Put(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, d *Disk) {
		t.Helper()
		if grew := int64(liveHeap()) - int64(empty); grew > maxGrowth {
			t.Errorf("%s: heap %.1f MiB above the empty store's holding %d MiB, want < %d MiB",
				what, float64(grew)/(1<<20), files*perFile*payload>>20, maxGrowth>>20)
		}
		if got := d.Count(files); got != perFile {
			t.Fatalf("%s: Count = %d, want %d", what, got, perFile)
		}
		m, err := d.Get(files/2, perFile-1)
		if err != nil || len(m.Payload) != payload || m.Payload[0] != files/2 || m.Payload[payload-1] != perFile-1 {
			t.Fatalf("%s: Get returns the wrong message: %v", what, err)
		}
	}
	check("after the puts", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = nil
	again, err := OpenDiskWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	check("after the recovery scan", again)
}

// TestDiskReadsThroughFaultSweep replays crashWorkload with EIO, ENOSPC
// and a short write injected at every filesystem operation and, after
// every Put, acked or not, reads every acked slot back from the live
// store. Each read must return a write of that slot no older than its
// last acknowledged one — including after a compaction whose rename
// landed but whose directory fsync failed, where offsets into the old
// journal would point into the new one.
func TestDiskReadsThroughFaultSweep(t *testing.T) {
	work := crashWorkload()
	total := countWorkloadOps(t, work)
	faults := []struct {
		name string
		arm  func(e *fsx.ErrFS, n int)
		err  error
	}{
		{"eio", func(e *fsx.ErrFS, n int) { e.FailOp(n, fsx.ErrDiskIO) }, fsx.ErrDiskIO},
		{"enospc", func(e *fsx.ErrFS, n int) { e.FailOp(n, fsx.ErrNoSpace) }, fsx.ErrNoSpace},
		{"shortwrite", func(e *fsx.ErrFS, n int) { e.ShortWriteOp(n) }, io.ErrShortWrite},
	}
	type slot struct{ fid, mid uint64 }
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			for n := 1; n <= total; n++ {
				efs := fsx.NewErrFS(int64(n))
				fault.arm(efs, n)
				d, err := OpenDiskWith("/store", DiskOptions{FS: efs, CompactMinBytes: 512})
				if err != nil {
					if !errors.Is(err, fault.err) {
						t.Fatalf("%s@%d: open failed with foreign error: %v", fault.name, n, err)
					}
					continue
				}
				lastAcked := make(map[slot]int)
				for i, m := range work {
					if err := d.Put(m); err == nil {
						lastAcked[slot{m.FileID, m.MessageID}] = i
					} else if !errors.Is(err, fault.err) {
						t.Fatalf("%s@%d: Put %d failed with foreign error: %v", fault.name, n, i, err)
					}
					for s, acked := range lastAcked {
						got, err := d.Get(s.fid, s.mid)
						if err != nil {
							t.Fatalf("%s@%d: after Put %d, acked (%d,%d) unreadable: %v", fault.name, n, i, s.fid, s.mid, err)
						}
						valid := false
						for j := acked; j <= i && !valid; j++ {
							w := work[j]
							valid = w.FileID == s.fid && w.MessageID == s.mid && bytes.Equal(got.Payload, w.Payload)
						}
						if !valid {
							t.Fatalf("%s@%d: after Put %d, (%d,%d) reads %x, not a write since its last ack", fault.name, n, i, s.fid, s.mid, got.Payload)
						}
					}
				}
				d.Close()
			}
		})
	}
}

// TestDiskReadRejectsBadRecords: a record that rots on disk under a
// running store, or an index entry that lands on another message's
// intact record, is ErrCorrupt from Get and Messages — never bytes —
// while the file's other records still read.
func TestDiskReadRejectsBadRecords(t *testing.T) {
	const payload = 64
	rec2 := int64(headerLen + recordHdrLen + payload) // where message 2's record starts
	cases := []struct {
		name  string
		write func(f *os.File) error
	}{
		{"payload bit flip", func(f *os.File) error {
			b := []byte{0}
			if _, err := f.ReadAt(b, rec2+recordHdrLen+10); err != nil {
				return err
			}
			b[0] ^= 0x04
			_, err := f.WriteAt(b, rec2+recordHdrLen+10)
			return err
		}},
		{"another message's record", func(f *os.File) error {
			alien := appendRecord(nil, msg(0x5E, 1, bytes.Repeat([]byte{0x77}, payload)...))
			_, err := f.WriteAt(alien, rec2)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for id := uint64(1); id <= 2; id++ {
				if err := d.Put(msg(0x5E, id, bytes.Repeat([]byte{byte(id)}, payload)...)); err != nil {
					t.Fatal(err)
				}
			}
			f, err := os.OpenFile(filepath.Join(dir, "5e.dat"), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.write(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if m, err := d.Get(0x5E, 2); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get of the bad record = %v, %v; want ErrCorrupt", m, err)
			}
			if msgs, err := d.Messages(0x5E); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Messages over the bad record = %d messages, %v; want ErrCorrupt", len(msgs), err)
			}
			if m, err := d.Get(0x5E, 1); err != nil || !bytes.Equal(m.Payload, bytes.Repeat([]byte{1}, payload)) {
				t.Errorf("the intact record no longer reads: %v", err)
			}
		})
	}
}

// TestDiskReadsAfterCloseFail: a closed store refuses reads instead of
// serving from a handle it has given up.
func TestDiskReadsAfterCloseFail(t *testing.T) {
	d := mustDisk(t)
	if err := d.Put(msg(3, 1, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(3, 1); err == nil {
		t.Error("Get after Close succeeded")
	}
	if _, err := d.Messages(3); err == nil {
		t.Error("Messages after Close succeeded")
	}
}

// TestDiskDropKeepsIndexWhenRemoveFails: a Drop whose Remove fails
// leaves the file and its index in place, so everything still reads.
func TestDiskDropKeepsIndexWhenRemoveFails(t *testing.T) {
	efs := fsx.NewErrFS(1)
	d, err := OpenDiskWith("/store", DiskOptions{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(msg(4, 1, 0xBB, 0xCC)); err != nil {
		t.Fatal(err)
	}
	efs.FailOp(efs.Ops()+1, fsx.ErrDiskIO) // the Remove
	if err := d.Drop(4); !errors.Is(err, fsx.ErrDiskIO) {
		t.Fatalf("Drop = %v, want the injected error", err)
	}
	m, err := d.Get(4, 1)
	if err != nil || !bytes.Equal(m.Payload, []byte{0xBB, 0xCC}) {
		t.Fatalf("after a failed Drop: %v, %v", m, err)
	}
	if err := d.Drop(4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(4, 1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("Get after Drop = %v, want ErrUnknownFile", err)
	}
	if got := fmt.Sprint(d.Files()); got != "[]" {
		t.Errorf("Files after Drop = %s", got)
	}
}
