package chunk

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
)

// Assembler reassembles a file in place: one output buffer sized from
// the manifest, a Slot per chunk for its decoder to write into, and a
// single in-order MD5 frontier that advances as chunks complete. MD5 is
// sequential, so the file digest is hashed chunk by chunk — by whichever
// goroutine's Done finds the frontier unblocked — while later chunks are
// still downloading, and Finish is left with at most the chunks that
// completed last.
//
// Slot ownership: Slot(i) belongs to its one writer until that writer
// calls Done(i); afterwards it is read-only. Done publishes the slot
// under the assembler's mutex and the hasher picks it up under the same
// mutex, which is the happens-before from the decoder's last write to
// the hash's first read. Slot, Done and Finish are safe for concurrent
// use on distinct chunks.
type Assembler struct {
	out  []byte
	offs []int  // offs[i] is where chunk i starts; offs[len] == len(out)
	want string // the manifest's ContentMD5; "" skips the hash

	mu      sync.Mutex
	done    []bool
	next    int       // chunks [0, next) are in the hash
	hashing bool      // some goroutine is advancing next
	h       hash.Hash // nil when want is ""
}

// NewAssembler validates m and allocates the output buffer.
func NewAssembler(m *Manifest) (*Assembler, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := &Assembler{
		out:  make([]byte, m.TotalSize),
		offs: make([]int, len(m.Chunks)+1),
		want: m.ContentMD5,
		done: make([]bool, len(m.Chunks)),
	}
	for i, c := range m.Chunks {
		a.offs[i+1] = a.offs[i] + c.DataLen
	}
	if a.want != "" {
		a.h = md5.New()
	}
	return a, nil
}

// Slot returns chunk i's byte range of the output: exactly DataLen
// bytes, capacity-clipped so a writer cannot spill into its neighbour.
func (a *Assembler) Slot(i int) []byte {
	return a.out[a.offs[i]:a.offs[i+1]:a.offs[i+1]]
}

// Done marks chunk i decoded — its slot is final — and hashes every
// chunk the frontier can now reach, unless another goroutine is already
// doing so (it will pick this one up).
func (a *Assembler) Done(i int) {
	a.mu.Lock()
	a.done[i] = true
	a.advanceLocked()
	a.mu.Unlock()
}

// advanceLocked moves the hash frontier over every consecutive finished
// chunk. The lock is dropped around each Write; hashing keeps other
// callers out of the hash meanwhile.
func (a *Assembler) advanceLocked() {
	if a.h == nil || a.hashing {
		return
	}
	a.hashing = true
	for a.next < len(a.done) && a.done[a.next] {
		slot := a.Slot(a.next)
		a.mu.Unlock()
		a.h.Write(slot)
		a.mu.Lock()
		a.next++
	}
	a.hashing = false
}

// Finish returns the assembled file once every chunk is Done and the
// content digest, when the manifest carries one, matches. It is called
// after the last Done has returned. A gap is ErrChunkMissing, a digest
// mismatch ErrBadManifest; either way no data is returned.
func (a *Assembler) Finish() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, ok := range a.done {
		if !ok {
			return nil, fmt.Errorf("%w: chunk %d", ErrChunkMissing, i)
		}
	}
	if a.h != nil && hex.EncodeToString(a.h.Sum(nil)) != a.want {
		return nil, fmt.Errorf("%w: assembled content digest mismatch", ErrBadManifest)
	}
	return a.out, nil
}

// Assemble concatenates decoded chunk payloads (in chunk order) into the
// original file and verifies the total size and content digest: the
// one-shot use of Assembler, for callers that hold every chunk already.
func Assemble(m *Manifest, chunks [][]byte) ([]byte, error) {
	a, err := NewAssembler(m)
	if err != nil {
		return nil, err
	}
	if len(chunks) != len(m.Chunks) {
		return nil, fmt.Errorf("%w: have %d of %d chunks", ErrChunkMissing, len(chunks), len(m.Chunks))
	}
	for i, c := range chunks {
		if c == nil {
			return nil, fmt.Errorf("%w: chunk %d", ErrChunkMissing, i)
		}
		if len(c) != m.Chunks[i].DataLen {
			return nil, fmt.Errorf("%w: chunk %d is %d bytes, manifest says %d",
				ErrBadManifest, i, len(c), m.Chunks[i].DataLen)
		}
		copy(a.Slot(i), c)
		a.Done(i)
	}
	return a.Finish()
}
