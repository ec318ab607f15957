package chunk

import "fmt"

// Assembler reassembles a file in place: one output buffer sized from
// the manifest, a Slot per chunk for its decoder to write into, a done
// flag per chunk, and Finish. It checks no content itself — a chunk is
// verified against its Sum (ChunkInfo.CheckSum) by whoever decoded it,
// before Done — except for a manifest of the older format, whose
// whole-file ContentMD5 Finish verifies.
//
// Slot ownership: Slot(i) belongs to its one writer until that writer
// calls Done(i); afterwards it is read-only. Slot and Done are safe for
// concurrent use on distinct chunks; Finish is called once every Done
// has returned, and whatever tells the caller so (a WaitGroup, say) is
// what orders the writers before it.
type Assembler struct {
	out  []byte
	offs []int  // offs[i] is where chunk i starts; offs[len] == len(out)
	want string // a legacy manifest's ContentMD5, or ""
	done []bool
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
	return a, nil
}

// Slot returns chunk i's byte range of the output: exactly DataLen
// bytes, capacity-clipped so a writer cannot spill into its neighbour.
func (a *Assembler) Slot(i int) []byte {
	return a.out[a.offs[i]:a.offs[i+1]:a.offs[i+1]]
}

// Done marks chunk i decoded and verified: its slot is final.
func (a *Assembler) Done(i int) { a.done[i] = true }

// Finish returns the assembled file once every chunk is Done. A gap is
// ErrChunkMissing, a legacy content digest that does not match
// ErrBadManifest; either way no data is returned.
func (a *Assembler) Finish() ([]byte, error) {
	for i, ok := range a.done {
		if !ok {
			return nil, fmt.Errorf("%w: chunk %d", ErrChunkMissing, i)
		}
	}
	if a.want != "" && ContentDigest(a.out) != a.want {
		return nil, fmt.Errorf("%w: assembled content digest mismatch", ErrBadManifest)
	}
	return a.out, nil
}

// Assemble concatenates decoded chunk payloads (in chunk order) into the
// original file, verifying each against its length and Sum: the
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
		if err := m.Chunks[i].CheckSum(m.Plan, c); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		copy(a.Slot(i), c)
		a.Done(i)
	}
	return a.Finish()
}
