package chunk

// Version diffing for the data-modification path (Sec. VI-A). In-place
// edits are pushed as per-chunk deltas; only the generations that
// actually changed need any network traffic.

import (
	"bytes"
	"fmt"
)

// ErrSizeChanged is returned when two versions differ in length; delta
// updates only cover in-place edits, so a resize needs a fresh share.
var ErrSizeChanged = fmt.Errorf("chunk: version sizes differ: %w", ErrBadManifest)

// ChangedChunks compares two equal-length versions and returns the
// indexes of the chunks (under the given chunk size) whose bytes
// differ.
func ChangedChunks(oldData, newData []byte, chunkSize int) ([]int, error) {
	if len(oldData) != len(newData) {
		return nil, ErrSizeChanged
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("%w: chunk size %d", ErrBadManifest, chunkSize)
	}
	var changed []int
	oldChunks := Split(oldData, chunkSize)
	newChunks := Split(newData, chunkSize)
	for i := range oldChunks {
		if !bytes.Equal(oldChunks[i], newChunks[i]) {
			changed = append(changed, i)
		}
	}
	return changed, nil
}
