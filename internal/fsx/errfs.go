package fsx

// ErrFS: a deterministic fault-injecting in-memory filesystem,
// mirroring internal/netsim's replay-from-seed design for disks
// instead of links. It models the durability semantics that matter for
// crash consistency (Pillai et al., OSDI '14):
//
//   - data reaches stable storage only at Sync; a power cut keeps the
//     synced prefix plus a seeded-random *torn tail* of whatever was
//     appended since — the analogue of a write interrupted mid-sector;
//   - creations, renames and removals reach stable storage only at
//     SyncDir on the parent; a fully-fsynced file still vanishes on
//     crash if its directory entry was never synced;
//   - any mutating operation can be made to fail with an injected
//     error (EIO/ENOSPC analogues), short-write, or trigger the power
//     cut, selected by a global operation ordinal so a sweep can crash
//     a workload at every single fault point it crosses.
//
// After Crash every handle and FS call returns ErrCrashed; Reboot
// restores the durable view as the new logical state, like mounting
// the disk after power returns. Given the same seed and the same
// logical operation sequence, fault decisions and torn-tail lengths
// replay byte-identically.

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Injection sentinels. FailOp accepts any error; these are provided so
// tests and callers classify the common device failures consistently.
var (
	// ErrCrashed is returned by every operation after the simulated
	// power cut (and by handles that survived a Reboot — the "disk"
	// they referenced is gone).
	ErrCrashed = errors.New("fsx: simulated power cut")

	// ErrDiskIO is the EIO analogue for FailOp.
	ErrDiskIO = errors.New("fsx: injected I/O error")

	// ErrNoSpace is the ENOSPC analogue for FailOp.
	ErrNoSpace = errors.New("fsx: injected no-space error")
)

// inode is one file's content. data is the logical content live
// readers see; synced is the snapshot known durable. The workloads
// above this layer only append or replace-via-rename, so the durable
// view after a crash is synced plus a torn tail of data beyond it; if
// content diverged below the synced length (an overwrite), the crash
// conservatively keeps only the synced snapshot.
type inode struct {
	data   []byte
	synced []byte
}

func (ino *inode) durableView(r *rand.Rand) []byte {
	n := len(ino.synced)
	if len(ino.data) >= n && bytes.Equal(ino.data[:n], ino.synced) {
		tail := ino.data[n:]
		keep := 0
		if len(tail) > 0 {
			keep = r.Intn(len(tail) + 1)
		}
		return append([]byte(nil), ino.data[:n+keep]...)
	}
	return append([]byte(nil), ino.synced...)
}

// ErrFS implements FS. The zero value is not usable; use NewErrFS.
type ErrFS struct {
	mu    sync.Mutex
	seed  int64
	epoch uint64 // bumped on Crash and Reboot; stale handles die

	names map[string]*inode // logical namespace
	dur   map[string]*inode // durable namespace (committed by SyncDir)
	dirs  map[string]bool   // existing directories (durable immediately)

	ops      int           // mutating-operation ordinal, 1-based
	crashAt  int           // crash when ops reaches this (0 = never)
	failAt   map[int]error // injected error per ordinal
	shortAt  map[int]bool  // short-write per ordinal
	crashed  bool
	durSnap  map[string][]byte // durable bytes frozen at crash time
	rebooted int               // Reboot count, for diagnostics
}

// NewErrFS returns an empty fault-injecting filesystem. The root
// directory exists; create others with MkdirAll.
func NewErrFS(seed int64) *ErrFS {
	return &ErrFS{
		seed:    seed,
		names:   make(map[string]*inode),
		dur:     make(map[string]*inode),
		dirs:    map[string]bool{".": true, "/": true},
		failAt:  make(map[int]error),
		shortAt: make(map[int]bool),
	}
}

// CrashAtOp schedules the power cut at the nth mutating operation
// (1-based). Zero disables. The nth operation itself fails with
// ErrCrashed; if it is a Write, a seeded-random prefix of its buffer
// may still reach the torn tail, like a write interrupted mid-flight.
func (e *ErrFS) CrashAtOp(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashAt = n
}

// FailOp injects err at the nth mutating operation (1-based). The
// operation does not take effect. Use ErrDiskIO/ErrNoSpace for the
// classic device failures.
func (e *ErrFS) FailOp(n int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failAt[n] = err
}

// ShortWriteOp makes the nth mutating operation, if it is a Write,
// persist only half its buffer and return io.ErrShortWrite.
func (e *ErrFS) ShortWriteOp(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shortAt[n] = true
}

// Ops returns the number of mutating operations performed so far. A
// sweep first runs the workload clean to learn the op count, then
// replays it with CrashAtOp(i) for every i in [1, Ops()].
func (e *ErrFS) Ops() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ops
}

// Crash cuts power immediately: the durable view is frozen and every
// subsequent operation returns ErrCrashed until Reboot.
func (e *ErrFS) Crash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.crashed {
		e.crashLocked()
	}
}

// Crashed reports whether the power is currently cut.
func (e *ErrFS) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Reboot restores power: the logical namespace becomes the durable
// view frozen at crash time. Handles opened before the crash stay
// dead. Reboot on an un-crashed filesystem is a hard power cycle —
// crash then reboot.
func (e *ErrFS) Reboot() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.crashed {
		e.crashLocked()
	}
	e.names = make(map[string]*inode, len(e.durSnap))
	e.dur = make(map[string]*inode, len(e.durSnap))
	for name, data := range e.durSnap {
		ino := &inode{
			data:   append([]byte(nil), data...),
			synced: append([]byte(nil), data...),
		}
		e.names[name] = ino
		e.dur[name] = ino
	}
	e.durSnap = nil
	e.crashed = false
	// A crash point is one-shot: the machine that comes back up is not
	// scheduled to die at the same op again.
	e.crashAt = 0
	e.epoch++
	e.rebooted++
}

// crashLocked freezes the durable view. Torn-tail lengths are drawn
// from a generator seeded by (seed, op ordinal) over files in sorted
// order, so the outcome is independent of map iteration and goroutine
// interleaving.
func (e *ErrFS) crashLocked() {
	r := rand.New(rand.NewSource(e.seed ^ int64(uint64(e.ops+1)*0x9E3779B97F4A7C15)))
	names := make([]string, 0, len(e.dur))
	for name := range e.dur {
		names = append(names, name)
	}
	sort.Strings(names)
	e.durSnap = make(map[string][]byte, len(names))
	for _, name := range names {
		e.durSnap[name] = e.dur[name].durableView(r)
	}
	e.crashed = true
	e.epoch++
}

// checkOp advances the mutating-operation ordinal and applies any
// scheduled fault. It returns (injected error, isShortWrite). Callers
// hold e.mu.
func (e *ErrFS) checkOp() (error, bool) {
	if e.crashed {
		return ErrCrashed, false
	}
	e.ops++
	if err, ok := e.failAt[e.ops]; ok {
		delete(e.failAt, e.ops)
		return err, false
	}
	if e.shortAt[e.ops] {
		delete(e.shortAt, e.ops)
		return io.ErrShortWrite, true
	}
	if e.crashAt > 0 && e.ops >= e.crashAt {
		return ErrCrashed, false
	}
	return nil, false
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func clean(name string) string { return filepath.Clean(name) }

func (e *ErrFS) parentExistsLocked(name string) bool {
	dir := filepath.Dir(name)
	return e.dirs[dir]
}

// OpenFile implements FS.
func (e *ErrFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	name = clean(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	ino, exists := e.names[name]
	creating := !exists && flag&os.O_CREATE != 0
	truncating := exists && flag&os.O_TRUNC != 0 && len(ino.data) > 0
	if !exists && !creating {
		return nil, notExist("open", name)
	}
	if creating && !e.parentExistsLocked(name) {
		return nil, notExist("open", name)
	}
	if creating || truncating {
		if err, _ := e.checkOp(); err != nil {
			if errors.Is(err, ErrCrashed) {
				e.crashLocked()
			}
			return nil, &fs.PathError{Op: "open", Path: name, Err: err}
		}
	}
	if creating {
		ino = &inode{}
		e.names[name] = ino
	}
	if truncating {
		ino.data = nil
	}
	f := &errFile{fs: e, name: name, ino: ino, epoch: e.epoch, flag: flag}
	if flag&os.O_APPEND != 0 {
		f.off = int64(len(ino.data))
	}
	return f, nil
}

// Rename implements FS. Durable after SyncDir on the parent.
func (e *ErrFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	ino, ok := e.names[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	if !e.parentExistsLocked(newpath) {
		return notExist("rename", newpath)
	}
	if err, _ := e.checkOp(); err != nil {
		if errors.Is(err, ErrCrashed) {
			e.crashLocked()
		}
		return &fs.PathError{Op: "rename", Path: oldpath, Err: err}
	}
	delete(e.names, oldpath)
	e.names[newpath] = ino
	return nil
}

// Remove implements FS. Durable after SyncDir on the parent.
func (e *ErrFS) Remove(name string) error {
	name = clean(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, ok := e.names[name]; !ok {
		return notExist("remove", name)
	}
	if err, _ := e.checkOp(); err != nil {
		if errors.Is(err, ErrCrashed) {
			e.crashLocked()
		}
		return &fs.PathError{Op: "remove", Path: name, Err: err}
	}
	delete(e.names, name)
	return nil
}

// MkdirAll implements FS. Directory creation is modelled as durable
// immediately — the journalled-store workloads create their directory
// once at open, long before any fault window of interest.
func (e *ErrFS) MkdirAll(path string, perm fs.FileMode) error {
	path = clean(path)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	for p := path; ; p = filepath.Dir(p) {
		e.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

// ReadDir implements FS.
func (e *ErrFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = clean(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	if !e.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p, ino := range e.names {
		if filepath.Dir(p) == name {
			out = append(out, &memDirEntry{name: filepath.Base(p), size: int64(len(ino.data))})
		}
	}
	for d := range e.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, &memDirEntry{name: filepath.Base(d), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements FS.
func (e *ErrFS) Stat(name string) (fs.FileInfo, error) {
	name = clean(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	if ino, ok := e.names[name]; ok {
		return &memFileInfo{name: filepath.Base(name), size: int64(len(ino.data))}, nil
	}
	if e.dirs[name] {
		return &memFileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, notExist("stat", name)
}

// SyncDir implements FS: commits the directory's current entries —
// creations, renames and removals — to the durable namespace.
func (e *ErrFS) SyncDir(dir string) error {
	dir = clean(dir)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if !e.dirs[dir] {
		return notExist("syncdir", dir)
	}
	if err, _ := e.checkOp(); err != nil {
		if errors.Is(err, ErrCrashed) {
			e.crashLocked()
		}
		return &fs.PathError{Op: "syncdir", Path: dir, Err: err}
	}
	for name := range e.dur {
		if filepath.Dir(name) == dir {
			if _, ok := e.names[name]; !ok {
				delete(e.dur, name)
			}
		}
	}
	for name, ino := range e.names {
		if filepath.Dir(name) == dir {
			e.dur[name] = ino
		}
	}
	return nil
}

// DurableNames lists the names that would survive a crash right now,
// sorted. Test helper.
func (e *ErrFS) DurableNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.dur))
	for name := range e.dur {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// errFile is a handle on an ErrFS inode.
type errFile struct {
	fs    *ErrFS
	name  string
	ino   *inode
	epoch uint64
	flag  int
	off   int64
	close bool
}

func (f *errFile) stale() bool { return f.close || f.epoch != f.fs.epoch }

func (f *errFile) Name() string { return f.name }

func (f *errFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.stale() {
		return 0, ErrCrashed
	}
	if f.off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[f.off:])
	f.off += int64(n)
	return n, nil
}

// ReadAt reads at an absolute offset and leaves the handle's offset
// where it was. Like Read it is not a mutating operation: it advances no
// fault ordinal, so adding reads to a workload moves none of its sweep
// points.
func (f *errFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.stale() {
		return 0, ErrCrashed
	}
	if off < 0 {
		return 0, &fs.PathError{Op: "readat", Path: f.name, Err: fs.ErrInvalid}
	}
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *errFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.stale() {
		return 0, ErrCrashed
	}
	err, short := f.fs.checkOp()
	if short {
		// Half the buffer lands, then the device errors out.
		n := f.writeLocked(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	if err != nil {
		if errors.Is(err, ErrCrashed) {
			// A power cut mid-write: a seeded-random prefix of the
			// buffer may still hit the platter before the light goes
			// out; it lands in the unsynced tail and is subject to the
			// usual torn-tail draw.
			r := rand.New(rand.NewSource(f.fs.seed ^ (0x517CC1B727220A95 * int64(f.fs.ops))))
			f.writeLocked(p[:r.Intn(len(p)+1)])
			f.fs.crashLocked()
		}
		return 0, err
	}
	return f.writeLocked(p), nil
}

// writeLocked applies a write at the handle offset, zero-filling any
// gap, and returns len(p).
func (f *errFile) writeLocked(p []byte) int {
	if f.flag&os.O_APPEND != 0 {
		f.off = int64(len(f.ino.data))
	}
	end := f.off + int64(len(p))
	for int64(len(f.ino.data)) < end {
		f.ino.data = append(f.ino.data, 0)
	}
	copy(f.ino.data[f.off:end], p)
	f.off = end
	return len(p)
}

func (f *errFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.stale() {
		return 0, ErrCrashed
	}
	switch whence {
	case io.SeekStart:
		f.off = offset
	case io.SeekCurrent:
		f.off += offset
	case io.SeekEnd:
		f.off = int64(len(f.ino.data)) + offset
	}
	if f.off < 0 {
		f.off = 0
	}
	return f.off, nil
}

func (f *errFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.stale() {
		return ErrCrashed
	}
	if err, _ := f.fs.checkOp(); err != nil {
		if errors.Is(err, ErrCrashed) {
			f.fs.crashLocked()
		}
		return err
	}
	f.ino.synced = append([]byte(nil), f.ino.data...)
	return nil
}

func (f *errFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.stale() {
		return ErrCrashed
	}
	if err, _ := f.fs.checkOp(); err != nil {
		if errors.Is(err, ErrCrashed) {
			f.fs.crashLocked()
		}
		return err
	}
	if size < 0 {
		size = 0
	}
	for int64(len(f.ino.data)) < size {
		f.ino.data = append(f.ino.data, 0)
	}
	// Only the logical content shrinks; the synced snapshot stands
	// until the next Sync, so a crash after an unsynced truncate
	// conservatively restores the old, longer content.
	f.ino.data = f.ino.data[:size]
	return nil
}

func (f *errFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.close {
		return fs.ErrClosed
	}
	f.close = true
	if f.fs.crashed || f.epoch != f.fs.epoch {
		return ErrCrashed
	}
	return nil
}

// memDirEntry / memFileInfo satisfy fs.DirEntry / fs.FileInfo.
type memDirEntry struct {
	name string
	size int64
	dir  bool
}

func (d *memDirEntry) Name() string { return d.name }
func (d *memDirEntry) IsDir() bool  { return d.dir }
func (d *memDirEntry) Type() fs.FileMode {
	if d.dir {
		return fs.ModeDir
	}
	return 0
}
func (d *memDirEntry) Info() (fs.FileInfo, error) {
	return &memFileInfo{name: d.name, size: d.size, dir: d.dir}, nil
}

type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i *memFileInfo) Name() string { return i.name }
func (i *memFileInfo) Size() int64  { return i.size }
func (i *memFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i *memFileInfo) ModTime() time.Time { return time.Time{} }
func (i *memFileInfo) IsDir() bool        { return i.dir }
func (i *memFileInfo) Sys() any           { return nil }
