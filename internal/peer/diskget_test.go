package peer

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// TestRottenRecordIsAStreamErrorNotData: a disk peer reads what it
// serves back from its journals, checked. When one payload byte of a
// stored record rots on disk, a GET for the file is answered with a
// STREAM_ERROR and no DATA frame carries the bad bytes, or any other.
func TestRottenRecordIsAStreamErrorNotData(t *testing.T) {
	const (
		fileID  = 0x3C
		payload = 1024
	)
	dir := t.TempDir()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for id := uint64(0); id < 4; id++ {
		if err := st.Put(&rlnc.Message{FileID: fileID, MessageID: id, Payload: bytes.Repeat([]byte{byte(id)}, payload)}); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte in the last record's payload, one byte from the end.
	f, err := os.OpenFile(filepath.Join(dir, "3c.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	n := admissionNode(t, Config{Store: st})
	peerEnd, userEnd := net.Pipe()
	t.Cleanup(func() { peerEnd.Close(); userEnd.Close() })
	cs, wg := handConn(t, n, peerEnd)
	frames := make(chan wire.Type, 8)
	refusal := make(chan wire.StreamError, 1)
	go func() {
		fr := wire.NewFrameReader(userEnd)
		for {
			typ, b, err := fr.Next()
			if err != nil {
				return
			}
			if typ == wire.TypeStreamError {
				var se wire.StreamError
				if se.Unmarshal(b.Bytes()) == nil {
					refusal <- se
				}
			}
			b.Release()
			frames <- typ
		}
	}()

	get := wire.Get{FileID: fileID}
	if cs.handleGet(get.Marshal()) {
		t.Fatal("handleGet closed the connection")
	}
	select {
	case typ := <-frames:
		if typ != wire.TypeStreamError {
			t.Fatalf("first frame is %v, want STREAM_ERROR", typ)
		}
		if se := <-refusal; se.FileID != fileID {
			t.Fatalf("refusal names file %d, want %d", se.FileID, fileID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GET over a rotten record was not answered")
	}
	wg.Wait()
	select {
	case typ := <-frames:
		t.Fatalf("a %v frame followed the refusal", typ)
	default:
	}
}
