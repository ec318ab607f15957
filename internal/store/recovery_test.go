package store

// Crash-recovery tests for the journaled disk backend. The table cases
// hand-craft specific damage (torn tails, bit flips, truncations) and
// assert the recovery policy: torn tails are cut, interior corruption
// is quarantined, and neither is fatal. The sweep tests run the store
// on fsx.ErrFS and inject a fault at every single filesystem operation
// of a Put workload, asserting the durability contract: every
// acknowledged Put survives, every surviving message is byte-identical
// to something that was written, and every failure is a clean error —
// never silent corruption.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
)

// journalBytes renders a complete journal file for crafting test cases.
func journalBytes(fileID uint64, msgs ...*rlnc.Message) []byte {
	buf := append([]byte(nil), encodeHeader(fileID)...)
	for _, m := range msgs {
		buf = appendRecord(buf, m)
	}
	return buf
}

func TestJournalRecoveryTable(t *testing.T) {
	m1 := msg(0xAB, 1, 0x11, 0x12, 0x13)
	m2 := msg(0xAB, 2, 0x21, 0x22)
	m3 := msg(0xAB, 3, 0x31)
	full := journalBytes(0xAB, m1, m2, m3)
	rec3Start := len(full) - (recordHdrLen + len(m3.Payload))
	rec2Start := rec3Start - (recordHdrLen + len(m2.Payload))

	cases := []struct {
		name        string
		data        []byte
		wantIDs     []uint64 // message-ids recovered for file 0xAB
		truncated   int
		quarantined int
	}{
		{
			name:    "clean journal",
			data:    full,
			wantIDs: []uint64{1, 2, 3},
		},
		{
			name:      "torn mid-payload of last record",
			data:      full[:len(full)-1],
			wantIDs:   []uint64{1, 2},
			truncated: 1,
		},
		{
			name:      "torn inside last record header",
			data:      full[:rec3Start+5],
			wantIDs:   []uint64{1, 2},
			truncated: 1,
		},
		{
			name:      "torn right after a valid record",
			data:      append(append([]byte(nil), full...), 0xDE, 0xAD), // trailing garbage too short to frame
			wantIDs:   []uint64{1, 2, 3},
			truncated: 1,
		},
		{
			name:      "torn header",
			data:      full[:10],
			wantIDs:   nil,
			truncated: 1,
		},
		{
			name:    "empty file",
			data:    nil,
			wantIDs: nil,
		},
		{
			name: "bit flip in mid-file record payload",
			data: func() []byte {
				d := append([]byte(nil), full...)
				d[rec2Start+recordHdrLen] ^= 0x01
				return d
			}(),
			wantIDs:     []uint64{1},
			quarantined: 1,
		},
		{
			name: "bit flip in final record payload",
			data: func() []byte {
				d := append([]byte(nil), full...)
				d[len(d)-1] ^= 0x80
				return d
			}(),
			wantIDs:     []uint64{1, 2},
			quarantined: 1,
		},
		{
			name: "record file-id disagrees with header",
			data: func() []byte {
				alien := msg(0xCD, 9, 0x99)
				return appendRecord(journalBytes(0xAB, m1), alien)
			}(),
			wantIDs:     []uint64{1},
			quarantined: 1,
		},
		{
			name: "unknown journal version",
			data: func() []byte {
				d := append([]byte(nil), full...)
				d[7] = 9
				return d
			}(),
			wantIDs:     nil,
			quarantined: 1,
		},
		{
			name:        "legacy file with damaged tail keeps parsed prefix",
			data:        append(legacyBytes(m1, m2), 0, 0, 0, 9, 1, 2),
			wantIDs:     []uint64{1, 2},
			quarantined: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ab.dat")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatalf("recovery must absorb damage, got: %v", err)
			}
			var got []uint64
			if msgs, err := d.Messages(0xAB); err == nil {
				for _, m := range msgs {
					got = append(got, m.MessageID)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.wantIDs) {
				t.Errorf("recovered ids = %v, want %v", got, tc.wantIDs)
			}
			stats := d.Recovery()
			if stats.TruncatedTails != tc.truncated {
				t.Errorf("TruncatedTails = %d, want %d", stats.TruncatedTails, tc.truncated)
			}
			if stats.QuarantinedFiles != tc.quarantined {
				t.Errorf("QuarantinedFiles = %d, want %d", stats.QuarantinedFiles, tc.quarantined)
			}
			if tc.quarantined > 0 {
				if _, err := os.Stat(path + ".corrupt"); err != nil {
					t.Errorf("quarantine file missing: %v", err)
				}
			}
			// Recovered payloads are intact, and the store reopens
			// cleanly now that the damage is repaired.
			for _, id := range tc.wantIDs {
				m, err := d.Get(0xAB, id)
				if err != nil {
					t.Fatalf("Get(%d): %v", id, err)
				}
				want := map[uint64][]byte{1: m1.Payload, 2: m2.Payload, 3: m3.Payload}[id]
				if !bytes.Equal(m.Payload, want) {
					t.Errorf("message %d payload = %x, want %x", id, m.Payload, want)
				}
			}
			again, err := OpenDisk(dir)
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			if r := again.Recovery(); r.TruncatedTails != 0 || r.QuarantinedFiles != 0 {
				t.Errorf("second open repaired again: %+v", r)
			}
		})
	}
}

// legacyBytes renders the pre-journal format: [4-byte len][Fig. 3
// record] concatenated.
func legacyBytes(msgs ...*rlnc.Message) []byte {
	var buf bytes.Buffer
	var lenBuf [4]byte
	for _, m := range msgs {
		lenBuf[0] = byte(len(m.Payload) >> 24)
		lenBuf[1] = byte(len(m.Payload) >> 16)
		lenBuf[2] = byte(len(m.Payload) >> 8)
		lenBuf[3] = byte(len(m.Payload))
		buf.Write(lenBuf[:])
		m.WriteTo(&buf)
	}
	return buf.Bytes()
}

func TestDiskMigratesLegacyFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "2a.dat")
	if err := os.WriteFile(path, legacyBytes(msg(0x2A, 1, 1, 2), msg(0x2A, 2, 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Recovery().MigratedLegacy != 1 {
		t.Errorf("MigratedLegacy = %d", d.Recovery().MigratedLegacy)
	}
	if got := d.Count(0x2A); got != 2 {
		t.Fatalf("Count = %d", got)
	}
	// The file is now a journal and appends keep working.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != journalMagic {
		t.Fatalf("file not migrated to journal format: %x", data[:4])
	}
	if err := d.Put(msg(0x2A, 3, 4)); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Count(0x2A); got != 3 {
		t.Errorf("Count after migrate+append+reopen = %d", got)
	}
	if again.Recovery().MigratedLegacy != 0 {
		t.Error("migration ran twice")
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	d, err := OpenDiskWith(dir, DiskOptions{CompactMinBytes: 1024, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 100)
	// Overwrite one message many times: the journal accumulates dead
	// records until compaction rewrites it near its live size.
	for i := 0; i < 100; i++ {
		p := append([]byte(nil), payload...)
		p[0] = byte(i)
		if err := d.Put(msg(0x77, 1, p...)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, "77.dat"))
	if err != nil {
		t.Fatal(err)
	}
	// Without compaction the journal would be ~100 records (≈14 KiB);
	// with it, the size stays near the 1 KiB trigger threshold.
	if info.Size() > 2048 {
		t.Errorf("journal never compacted: size %d", info.Size())
	}
	compacted := false
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == MetricCompactions {
			for _, s := range fam.Series {
				if s.Value > 0 {
					compacted = true
				}
			}
		}
	}
	if !compacted {
		t.Error("store_compactions_total never incremented")
	}
	// The compacted journal reopens with the latest payload.
	again, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := again.Get(0x77, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Payload[0] != 99 {
		t.Errorf("recovered payload[0] = %d, want 99", m.Payload[0])
	}
}

// crashWorkload is the Put sequence the sweep tests replay: two files,
// fresh writes and overwrites, enough to cross journal creation,
// appends and at least one compaction.
func crashWorkload() []*rlnc.Message {
	var out []*rlnc.Message
	for i := 0; i < 12; i++ {
		p := bytes.Repeat([]byte{byte(0xA0 + i)}, 40)
		out = append(out, msg(1, uint64(i%4), p...)) // overwrites ids 0-3
		out = append(out, msg(2, uint64(i), byte(i), 0xFF))
	}
	return out
}

// verifyRecovered opens the store after a fault and checks the
// durability contract. acked[i] reports whether work[i]'s Put returned
// success.
func verifyRecovered(t *testing.T, efs *fsx.ErrFS, dir string, work []*rlnc.Message, acked []bool, label string) {
	t.Helper()
	d, err := OpenDiskWith(dir, DiskOptions{FS: efs, CompactMinBytes: 512})
	if err != nil {
		t.Fatalf("%s: reopen after fault failed: %v", label, err)
	}
	// The last acked write per (file, message) must be recoverable — or
	// be superseded by a later (unacked but fully landed) write of the
	// same slot. Any recovered payload must be byte-identical to SOME
	// write of that slot at or after the last acked one.
	type slot struct{ fid, mid uint64 }
	lastAcked := make(map[slot]int)
	for i, ok := range acked {
		if ok {
			lastAcked[slot{work[i].FileID, work[i].MessageID}] = i
		}
	}
	for s, idx := range lastAcked {
		got, err := d.Get(s.fid, s.mid)
		if err != nil {
			t.Fatalf("%s: acked message (%d,%d) lost: %v", label, s.fid, s.mid, err)
		}
		valid := false
		for i := idx; i < len(work); i++ {
			w := work[i]
			if w.FileID == s.fid && w.MessageID == s.mid && bytes.Equal(got.Payload, w.Payload) {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("%s: message (%d,%d) recovered with corrupt payload %x", label, s.fid, s.mid, got.Payload)
		}
	}
	// Nothing in the store may be garbage: every present message must
	// match some write of its slot.
	for _, fid := range d.Files() {
		msgs, err := d.Messages(fid)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			valid := false
			for _, w := range work {
				if w.FileID == m.FileID && w.MessageID == m.MessageID && bytes.Equal(w.Payload, m.Payload) {
					valid = true
					break
				}
			}
			if !valid {
				t.Fatalf("%s: store holds fabricated message (%d,%d) %x", label, m.FileID, m.MessageID, m.Payload)
			}
		}
	}
	// A pure crash/error never looks like bit rot.
	if q := d.Recovery().QuarantinedFiles; q != 0 {
		t.Fatalf("%s: crash recovery quarantined %d files", label, q)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
}

// countWorkloadOps runs the workload on a clean ErrFS and returns the
// number of filesystem operations it performs.
func countWorkloadOps(t *testing.T, work []*rlnc.Message) int {
	t.Helper()
	efs := fsx.NewErrFS(1)
	d, err := OpenDiskWith("/store", DiskOptions{FS: efs, CompactMinBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range work {
		if err := d.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return efs.Ops()
}

func TestDiskCrashPointSweep(t *testing.T) {
	work := crashWorkload()
	total := countWorkloadOps(t, work)
	if total < len(work) {
		t.Fatalf("implausible op count %d", total)
	}
	for n := 1; n <= total; n++ {
		efs := fsx.NewErrFS(int64(n))
		efs.CrashAtOp(n)
		d, err := OpenDiskWith("/store", DiskOptions{FS: efs, CompactMinBytes: 512})
		acked := make([]bool, len(work))
		if err == nil {
			for i, m := range work {
				if err := d.Put(m); err != nil {
					break
				}
				acked[i] = true
			}
			d.Close()
		}
		if !efs.Crashed() {
			t.Fatalf("crash at op %d never fired (total ops %d)", n, total)
		}
		efs.Reboot()
		verifyRecovered(t, efs, "/store", work, acked, fmt.Sprintf("crash@%d", n))
	}
}

func TestDiskFaultInjectionSweep(t *testing.T) {
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
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			for n := 1; n <= total; n++ {
				efs := fsx.NewErrFS(int64(n))
				fault.arm(efs, n)
				label := fmt.Sprintf("%s@%d", fault.name, n)
				d, err := OpenDiskWith("/store", DiskOptions{FS: efs, CompactMinBytes: 512})
				acked := make([]bool, len(work))
				if err != nil {
					// The injected fault hit MkdirAll/scan: must be the
					// typed error, and the sweep point is spent.
					if !errors.Is(err, fault.err) {
						t.Fatalf("%s: open failed with foreign error: %v", label, err)
					}
				} else {
					for i, m := range work {
						if err := d.Put(m); err != nil {
							if !errors.Is(err, fault.err) {
								t.Fatalf("%s: Put failed with foreign error: %v", label, err)
							}
							continue // later Puts must recover
						}
						acked[i] = true
					}
					if err := d.Close(); err != nil && !errors.Is(err, fault.err) {
						t.Fatalf("%s: close: %v", label, err)
					}
				}
				verifyRecovered(t, efs, "/store", work, acked, label)
			}
		})
	}
}
