package store

import (
	"bytes"
	"testing"

	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
)

// TestPutCopiesWhatItKeeps is the Store.Put ownership contract on every
// implementation: the caller's message and payload are its own again
// the moment Put returns — the peer hands Put a view of a frame buffer
// that the next frame overwrites — and Put never writes to them. The
// Disk journal is reopened to show the bytes on disk are the original's
// too.
func TestPutCopiesWhatItKeeps(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	stores := []struct {
		name string
		s    Store
	}{
		{"memory", NewMemory()},
		{"disk", disk},
		{"instrumented", Instrument(NewMemory(), metrics.NewRegistry())},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			frame := bytes.Repeat([]byte{0x5A}, 4096) // stands in for the pooled frame buffer
			want := bytes.Clone(frame)
			in := &rlnc.Message{FileID: 7, MessageID: 3, Payload: frame}
			if err := tc.s.Put(in); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, want) || in.FileID != 7 || in.MessageID != 3 {
				t.Fatal("Put mutated the caller's message")
			}
			// The buffer is reused for the next message and then scribbled.
			for i := range frame {
				frame[i] = byte(i)
			}
			in.MessageID = 4
			if err := tc.s.Put(in); err != nil {
				t.Fatal(err)
			}
			second := bytes.Clone(frame)
			clear(frame)
			in.FileID, in.MessageID = 99, 99

			got, err := tc.s.Get(7, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Payload, want) {
				t.Error("Get returns bytes written after Put returned: the store kept the caller's payload")
			}
			msgs, err := tc.s.Messages(7)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) != 2 || msgs[0].MessageID != 3 || msgs[1].MessageID != 4 ||
				!bytes.Equal(msgs[0].Payload, want) || !bytes.Equal(msgs[1].Payload, second) {
				t.Errorf("Messages does not return the two payloads as they were at Put: %v", msgs)
			}
		})
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, err := reopened.Get(7, 3)
	if err != nil || !bytes.Equal(got.Payload, bytes.Repeat([]byte{0x5A}, 4096)) {
		t.Errorf("journal replays different bytes for the first message: %v", err)
	}
}

// TestPutAllocatesOnlyTheRetainedCopy: a memory Put allocates the
// message it keeps — the struct and its payload — and nothing else.
func TestPutAllocatesOnlyTheRetainedCopy(t *testing.T) {
	s := NewMemory()
	in := &rlnc.Message{FileID: 1, MessageID: 1, Payload: make([]byte, 2048)}
	put := func() {
		if err := s.Put(in); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if avg := testing.AllocsPerRun(100, put); avg > 2 {
		t.Errorf("Put allocates %.1f times, want the retained message and its payload (2)", avg)
	}
}

// TestDiskPutSteadyStateAllocs: a disk Put keeps nothing in memory but
// the record's place in the index, so a warm overwrite allocates
// nothing — the record is framed in a buffer reused from Put to Put.
func TestDiskPutSteadyStateAllocs(t *testing.T) {
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	// Overwrites of one id, small enough that the journal never reaches
	// its compaction threshold inside the measured runs.
	in := &rlnc.Message{FileID: 1, MessageID: 1, Payload: make([]byte, 2048)}
	put := func() {
		if err := disk.Put(in); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if avg := testing.AllocsPerRun(100, put); avg != 0 {
		t.Errorf("warm disk Put allocates %.1f times, want 0", avg)
	}
}
