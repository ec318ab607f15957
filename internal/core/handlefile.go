package core

// Handle files on disk. The handle is the only durable artifact a
// share leaves with its owner — lose it and the manifest digests and
// peer list are gone, so the encoded file is unrecoverable even with
// the secret. Saves therefore go through the write-temp, fsync,
// rename, fsync-parent discipline of fsx.WriteFileAtomic: a crash (or
// a failed update) leaves either the previous handle or the new one,
// never a torn or empty file.

import (
	"encoding/json"
	"fmt"

	"asymshare/internal/fsx"
)

// SaveHandleFile durably writes a handle to path as indented JSON.
func SaveHandleFile(path string, h *Handle) error {
	return SaveHandleFileFS(fsx.OS, path, h)
}

// SaveHandleFileFS is SaveHandleFile through an fsx.FS seam.
func SaveHandleFileFS(fsys fsx.FS, path string, h *Handle) error {
	blob, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return fmt.Errorf("core: save handle %s: %w", path, err)
	}
	blob = append(blob, '\n')
	if err := fsx.WriteFileAtomic(fsys, path, blob, 0o644); err != nil {
		return fmt.Errorf("core: save handle: %w", err)
	}
	return nil
}

// LoadHandleFile reads a handle previously written by SaveHandleFile
// and validates its manifest. A handle that fails (one written before
// chunks carried sums, say) is refused with chunk.ErrBadManifest
// naming the path, and the file is left as it was.
func LoadHandleFile(path string) (*Handle, error) {
	return LoadHandleFileFS(fsx.OS, path)
}

// LoadHandleFileFS is LoadHandleFile through an fsx.FS seam.
func LoadHandleFileFS(fsys fsx.FS, path string) (*Handle, error) {
	blob, err := fsx.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	var h Handle
	if err := json.Unmarshal(blob, &h); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadHandle, path, err)
	}
	if err := h.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("core: handle %s: %w; share the file again for a handle this version reads", path, err)
	}
	return &h, nil
}
