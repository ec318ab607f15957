// Package fsx is the filesystem seam under every durable artefact of
// the node: the message journal (internal/store), the fairness-ledger
// checkpoints (internal/fairshare) and the share handles
// (internal/core). It plays the role internal/transport plays for the
// network — the narrowest interface that lets the whole persistence
// stack run against a fake disk. fsx.OS is the real operating system
// and is what production binaries use; the seam adds zero behaviour
// change there. Tests inject ErrFS, a deterministic fault-injecting
// in-memory filesystem that models the torn-write and fsync pitfalls
// catalogued by Pillai et al. (OSDI '14): EIO/ENOSPC at the Nth
// operation, short writes, and power cuts that keep only synced bytes
// plus a seeded-random torn tail.
package fsx

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the handle surface the durability layer needs: sequential
// read/write, positioned reads (the journaled store reads records back
// by offset, concurrently, without a shared seek offset), explicit Sync
// (the durability point), and Truncate (used by journal recovery to cut
// torn tails).
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer

	// Seek repositions the handle (used by recovery re-reads).
	Seek(offset int64, whence int) (int64, error)

	// Sync flushes the file's content to stable storage. Data written
	// but not synced may be lost — wholly or partially — on a crash.
	Sync() error

	// Truncate changes the file's size.
	Truncate(size int64) error

	// Name returns the path the file was opened with.
	Name() string
}

// FS is a filesystem. Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile is the generalized open call, mirroring os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)

	// Rename atomically replaces newpath with oldpath. Like the POSIX
	// call, the *name change* is only durable after SyncDir on the
	// parent directory.
	Rename(oldpath, newpath string) error

	// Remove deletes a file. Durable after SyncDir on the parent.
	Remove(name string) error

	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error

	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]fs.DirEntry, error)

	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)

	// SyncDir fsyncs a directory, making creations, renames and
	// removals inside it durable. Skipping it is the classic
	// crash-consistency bug: a file can be fully fsynced yet vanish
	// because its directory entry never reached the disk.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		// Directory fsync is unsupported on some platforms and
		// filesystems, which report EINVAL-class errors; treat those as
		// "nothing to do", as every production WAL does.
		if errors.Is(syncErr, fs.ErrInvalid) || errors.Is(syncErr, syscall.EINVAL) {
			return closeErr
		}
		return syncErr
	}
	return closeErr
}

// ReadFile reads a whole file through an FS.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileAtomic durably replaces path with data: write to a
// same-directory temp file, fsync it, close, rename over path, then
// fsync the parent directory. A crash at any point leaves either the
// complete old content or the complete new content — never a mix, and
// never a name pointing at a half-written file.
func WriteFileAtomic(fsys FS, path string, data []byte, perm fs.FileMode) (err error) {
	dir := filepath.Dir(path)
	tmpName := path + ".tmp"
	tmp, err := fsys.OpenFile(tmpName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("fsx: atomic write %s: %w", path, err)
	}
	closed := false
	defer func() {
		if err != nil {
			if !closed {
				tmp.Close()
			}
			fsys.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("fsx: atomic write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("fsx: atomic write %s: sync: %w", path, err)
	}
	closed = true
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("fsx: atomic write %s: close: %w", path, err)
	}
	if err = fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("fsx: atomic write %s: rename: %w", path, err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("fsx: atomic write %s: sync dir: %w", path, err)
	}
	return nil
}
