package store

// Directory-backed store. Each file-id is persisted as
// `<file-id-hex>.dat`, an append-only CRC-32C framed journal (see
// journal.go for the format). A Put appends one record and fsyncs —
// O(record), where the previous implementation rewrote the whole file —
// and the caller is only acknowledged after the record is durable.
// When overwrites accumulate enough dead bytes the journal is compacted
// through a temp-file → fsync → rename → dir-fsync sequence, so a crash
// at any point leaves either the old or the new journal intact.
//
// Startup recovery is forgiving in exactly the ways a crash demands:
// a torn tail (the one record a power cut can mangle) is truncated and
// the prefix kept; interior corruption quarantines the file as
// `<name>.corrupt` — preserved for inspection, never silently dropped,
// never fatal to the rest of the store — and re-journals the undamaged
// prefix. Files in the pre-journal format (no magic) are migrated on
// first open. All filesystem access goes through an fsx.FS so the
// recovery paths are exercised under deterministic fault injection.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
)

const maxRecordPayload = 64 << 20 // sanity bound when reading

// Disk recovery and maintenance metric names (see DESIGN.md §7).
const (
	MetricQuarantined = "store_quarantined_files_total"
	MetricTruncated   = "store_truncated_tails_total"
	MetricCompactions = "store_compactions_total"
)

// Compaction defaults: rewrite a journal once it exceeds both 1 MiB and
// twice its live content.
const (
	defaultCompactMinBytes = 1 << 20
	defaultCompactFactor   = 2.0
)

// DiskOptions configures OpenDiskWith. The zero value is valid: the
// real filesystem, no metrics, default compaction thresholds.
type DiskOptions struct {
	// FS is the filesystem seam; nil means fsx.OS.
	FS fsx.FS

	// Metrics receives recovery and compaction counters; nil disables.
	Metrics *metrics.Registry

	// CompactMinBytes is the journal size below which compaction never
	// runs (default 1 MiB). CompactFactor is the size/live ratio above
	// which it does (default 2.0).
	CompactMinBytes int64
	CompactFactor   float64
}

// RecoveryStats describes what startup recovery had to repair.
type RecoveryStats struct {
	// TruncatedTails counts journals whose final, torn record was cut.
	TruncatedTails int

	// QuarantinedFiles counts data files renamed to `<name>.corrupt`
	// because of interior corruption; their undamaged prefix was kept.
	QuarantinedFiles int

	// MigratedLegacy counts pre-journal files rewritten into the
	// journal format.
	MigratedLegacy int
}

// journalState tracks one open journal.
type journalState struct {
	path    string
	f       fsx.File         // append handle, opened lazily
	size    int64            // bytes on disk
	live    int64            // header + live records
	recLens map[uint64]int64 // message-id → framed record length

	// broken means a failed append may have left partial record bytes
	// at the tail; the file must be truncated back to size before the
	// next append, or the garbage would corrupt the framing mid-file.
	broken bool
}

// Disk is a Store persisted under a directory.
type Disk struct {
	dir  string
	fsys fsx.FS

	compactMinBytes int64
	compactFactor   float64

	mu       sync.Mutex
	mem      *Memory // authoritative in-memory index
	journals map[uint64]*journalState
	stats    RecoveryStats
	closed   bool
	rec      []byte // the record being appended, framed here Put after Put

	quarantined *metrics.Counter
	truncated   *metrics.Counter
	compactions *metrics.Counter
}

var _ Store = (*Disk)(nil)

// OpenDisk opens (creating if needed) a directory-backed store on the
// real filesystem and recovers any existing data files.
func OpenDisk(dir string) (*Disk, error) {
	return OpenDiskWith(dir, DiskOptions{})
}

// OpenDiskWith opens a directory-backed store with explicit options.
// Corrupt data files are quarantined, not fatal: the store always opens
// unless the directory itself is unusable.
func OpenDiskWith(dir string, opts DiskOptions) (*Disk, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = fsx.OS
	}
	if opts.CompactMinBytes <= 0 {
		opts.CompactMinBytes = defaultCompactMinBytes
	}
	if opts.CompactFactor <= 1 {
		opts.CompactFactor = defaultCompactFactor
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d := &Disk{
		dir:             dir,
		fsys:            fsys,
		compactMinBytes: opts.CompactMinBytes,
		compactFactor:   opts.CompactFactor,
		mem:             NewMemory(),
		journals:        make(map[uint64]*journalState),
		quarantined:     opts.Metrics.Counter(MetricQuarantined, "Corrupt data files renamed to .corrupt during recovery."),
		truncated:       opts.Metrics.Counter(MetricTruncated, "Journals whose torn final record was truncated during recovery."),
		compactions:     opts.Metrics.Counter(MetricCompactions, "Journal compaction rewrites."),
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".dat") {
			continue
		}
		if err := d.recoverFile(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

// Recovery returns what startup recovery repaired.
func (d *Disk) Recovery() RecoveryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close flushes and closes every open journal. The store must not be
// used afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, js := range d.journals {
		if js.f == nil {
			continue
		}
		if err := js.f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("store: close: %w", err)
		}
		if err := js.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("store: close: %w", err)
		}
		js.f = nil
	}
	return first
}

// --- recovery -------------------------------------------------------

// recoverFile loads one data file, repairing or quarantining as needed.
// Only directory-level failures are returned; per-file damage is
// absorbed.
func (d *Disk) recoverFile(path string) error {
	info, err := d.fsys.Stat(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	if size == 0 {
		// A creation that never got its header: nothing was ever
		// acknowledged from it.
		d.fsys.Remove(path)
		d.fsys.SyncDir(d.dir)
		return nil
	}
	f, err := d.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var magic [4]byte
	n, _ := io.ReadFull(f, magic[:])
	if n == 4 && string(magic[:]) == journalMagic {
		err = d.recoverJournal(f, path, size)
	} else {
		err = d.recoverLegacy(f, path, size)
	}
	f.Close()
	return err
}

// recoverJournal reads a journal-format file positioned after its
// 4-byte magic.
func (d *Disk) recoverJournal(f fsx.File, path string, size int64) error {
	if size < headerLen {
		// The creating header write itself was torn.
		d.stats.TruncatedTails++
		d.truncated.Inc()
		if err := d.fsys.Remove(path); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return d.fsys.SyncDir(d.dir)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, journalMagic)
	if _, err := io.ReadFull(f, hdr[4:]); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	fileID, err := parseHeader(hdr)
	if err != nil {
		return d.quarantine(path, nil, err)
	}
	var (
		recs   []*rlnc.Message
		offset = int64(headerLen)
	)
	for offset < size {
		msg, n, err := readRecord(f, size-offset)
		if err == nil && msg.FileID != fileID {
			err = fmt.Errorf("%w: record file-id %d in journal %d", errCorruptRecord, msg.FileID, fileID)
		}
		switch {
		case err == nil:
			recs = append(recs, msg)
			offset += n
		case errors.Is(err, errTornTail):
			if err := d.truncateTail(path, offset); err != nil {
				return err
			}
			return d.adopt(path, fileID, recs, offset)
		default:
			return d.quarantine(path, recs, err)
		}
	}
	return d.adopt(path, fileID, recs, size)
}

// recoverLegacy parses a pre-journal file ([4-byte len][Fig. 3 record]
// concatenation, no checksums) positioned after a 4-byte read, and
// migrates it to the journal format. Without checksums a parse failure
// cannot be blamed on a torn tail, so damage quarantines the file,
// keeping the structurally-sound prefix.
func (d *Disk) recoverLegacy(f fsx.File, path string, size int64) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	var (
		recs   []*rlnc.Message
		lenBuf [4]byte
		broken error
	)
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			if err != io.EOF {
				broken = fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
			}
			break
		}
		payloadLen := binary.BigEndian.Uint32(lenBuf[:])
		if payloadLen > maxRecordPayload {
			broken = fmt.Errorf("%w: %s: record of %d bytes", ErrCorrupt, path, payloadLen)
			break
		}
		msg, err := rlnc.ReadMessage(f, int(payloadLen))
		if err != nil {
			broken = fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
			break
		}
		recs = append(recs, msg)
	}
	if broken != nil {
		return d.quarantine(path, recs, broken)
	}
	return d.migrateLegacy(path, recs)
}

// migrateLegacy rewrites cleanly-parsed legacy records as journals, one
// per file-id, and removes the original if its name is not reused.
func (d *Disk) migrateLegacy(path string, recs []*rlnc.Message) error {
	d.stats.MigratedLegacy++
	if len(recs) == 0 {
		if err := d.fsys.Remove(path); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return d.fsys.SyncDir(d.dir)
	}
	byFile := make(map[uint64][]*rlnc.Message)
	var order []uint64
	for _, msg := range recs {
		if _, ok := byFile[msg.FileID]; !ok {
			order = append(order, msg.FileID)
		}
		byFile[msg.FileID] = append(byFile[msg.FileID], msg)
	}
	reused := false
	for _, fid := range order {
		target := d.pathFor(fid)
		if target == path {
			reused = true
		}
		if err := d.writeJournal(target, fid, byFile[fid]); err != nil {
			return err
		}
		if err := d.adopt(target, fid, byFile[fid], 0); err != nil {
			return err
		}
		if js := d.journals[fid]; js != nil {
			js.size = js.live
		}
	}
	if !reused {
		if err := d.fsys.Remove(path); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return d.fsys.SyncDir(d.dir)
	}
	return nil
}

// quarantine renames a damaged file to `<name>.corrupt` and, when a
// valid prefix was recovered, re-journals it under the original name.
// The cause is absorbed, not returned: one rotten file must not stop
// the node from serving everything else it holds.
func (d *Disk) quarantine(path string, recs []*rlnc.Message, cause error) error {
	d.stats.QuarantinedFiles++
	d.quarantined.Inc()
	if err := d.fsys.Rename(path, path+".corrupt"); err != nil {
		return fmt.Errorf("store: quarantine %s (%v): %w", path, cause, err)
	}
	if err := d.fsys.SyncDir(d.dir); err != nil {
		return fmt.Errorf("store: quarantine %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil
	}
	fid := recs[0].FileID
	kept := recs[:0]
	for _, msg := range recs {
		if msg.FileID == fid {
			kept = append(kept, msg)
		}
	}
	target := d.pathFor(fid)
	if err := d.writeJournal(target, fid, kept); err != nil {
		return err
	}
	if err := d.adopt(target, fid, kept, 0); err != nil {
		return err
	}
	if js := d.journals[fid]; js != nil {
		js.size = js.live
	}
	return nil
}

// truncateTail cuts a journal back to its last valid record.
func (d *Disk) truncateTail(path string, offset int64) error {
	d.stats.TruncatedTails++
	d.truncated.Inc()
	w, err := d.fsys.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: truncate %s: %w", path, err)
	}
	defer w.Close()
	if err := w.Truncate(offset); err != nil {
		return fmt.Errorf("store: truncate %s: %w", path, err)
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("store: truncate %s: %w", path, err)
	}
	return nil
}

// adopt indexes recovered records and registers the journal. size 0
// means "equals live bytes" (freshly rewritten journals).
func (d *Disk) adopt(path string, fileID uint64, recs []*rlnc.Message, size int64) error {
	js := d.journals[fileID]
	if js == nil {
		js = &journalState{path: path, live: headerLen, recLens: make(map[uint64]int64)}
		d.journals[fileID] = js
	}
	js.path = path
	for _, msg := range recs {
		if err := d.mem.Put(msg); err != nil {
			return err
		}
		recLen := int64(recordHdrLen + len(msg.Payload))
		if old, ok := js.recLens[msg.MessageID]; ok {
			js.live -= old
		}
		js.recLens[msg.MessageID] = recLen
		js.live += recLen
	}
	if size > 0 {
		js.size = size
	}
	return nil
}

// writeJournal atomically writes a complete journal file.
func (d *Disk) writeJournal(path string, fileID uint64, msgs []*rlnc.Message) error {
	total := headerLen
	for _, msg := range msgs {
		total += recordHdrLen + len(msg.Payload)
	}
	buf := make([]byte, 0, total)
	buf = append(buf, encodeHeader(fileID)...)
	for _, msg := range msgs {
		buf = appendRecord(buf, msg)
	}
	if err := fsx.WriteFileAtomic(d.fsys, path, buf, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// --- writes ---------------------------------------------------------

func (d *Disk) pathFor(fileID uint64) string {
	return filepath.Join(d.dir, strconv.FormatUint(fileID, 16)+".dat")
}

// ensureJournal returns the journal for fileID with an open append
// handle, creating file and header on first use. The directory entry is
// made durable before the first record is acknowledged.
func (d *Disk) ensureJournal(fileID uint64) (*journalState, error) {
	js := d.journals[fileID]
	if js == nil {
		js = &journalState{
			path:    d.pathFor(fileID),
			live:    headerLen,
			recLens: make(map[uint64]int64),
		}
		d.journals[fileID] = js
	}
	if js.f != nil {
		return js, nil
	}
	// Re-stat on every reopen: after a failed compaction the tracked
	// size can be stale (the rename may or may not have landed), and
	// repair truncation must target the file that is actually there.
	switch info, err := d.fsys.Stat(js.path); {
	case err == nil:
		js.size = info.Size()
	case errors.Is(err, fs.ErrNotExist):
		js.size = 0
	default:
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := d.fsys.OpenFile(js.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if js.size < headerLen {
		if js.size > 0 {
			// A previous header write failed partway: start over.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		if _, err := f.Write(encodeHeader(fileID)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		js.size = headerLen
	}
	// Unconditional on reopen: the directory entry (creation here, or a
	// compaction rename whose own dir fsync failed) must be durable
	// before the next append is acknowledged, or a crash could revert
	// the name and take acknowledged records with it.
	if err := d.fsys.SyncDir(d.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	js.f = f
	return js, nil
}

// repair truncates trailing garbage left by a failed append.
func (d *Disk) repair(js *journalState) error {
	if err := js.f.Truncate(js.size); err != nil {
		return fmt.Errorf("store: repair %s: %w", js.path, err)
	}
	if err := js.f.Sync(); err != nil {
		return fmt.Errorf("store: repair %s: %w", js.path, err)
	}
	js.broken = false
	return nil
}

// appendLocked appends one record without syncing. The record is framed
// into d.rec, so msg is copied twice — into the journal write and into
// the index — and nothing else is allocated. The in-memory index
// is only updated once the bytes are written, and callers sync before
// returning success, so an acknowledged Put is always durable; on error
// the index may lag the journal by a torn record, which recovery cuts.
func (d *Disk) appendLocked(msg *rlnc.Message) (*journalState, error) {
	if msg == nil {
		return nil, fmt.Errorf("store: nil message")
	}
	js, err := d.ensureJournal(msg.FileID)
	if err != nil {
		return nil, err
	}
	if js.broken {
		if err := d.repair(js); err != nil {
			return nil, err
		}
	}
	d.rec = appendRecord(d.rec[:0], msg)
	if _, err := js.f.Write(d.rec); err != nil {
		js.broken = true
		return nil, fmt.Errorf("store: append: %w", err)
	}
	recLen := int64(len(d.rec))
	js.size += recLen
	if old, ok := js.recLens[msg.MessageID]; ok {
		js.live -= old
	}
	js.recLens[msg.MessageID] = recLen
	js.live += recLen
	if err := d.mem.Put(msg); err != nil {
		return nil, err
	}
	return js, nil
}

// maybeCompact rewrites a journal whose dead bytes dominate. The rename
// lands before any further append, so the append handle is reopened.
func (d *Disk) maybeCompact(fileID uint64, js *journalState) error {
	if js.size < d.compactMinBytes || float64(js.size) <= d.compactFactor*float64(js.live) {
		return nil
	}
	msgs, err := d.mem.Messages(fileID)
	if err != nil {
		return err
	}
	if js.f != nil {
		if err := js.f.Close(); err != nil {
			return fmt.Errorf("store: compact %s: %w", js.path, err)
		}
		js.f = nil
	}
	if err := d.writeJournal(js.path, fileID, msgs); err != nil {
		// The rename may have landed without its directory fsync; the
		// next append's reopen re-stats and re-syncs the directory.
		return err
	}
	js.size = js.live
	js.broken = false
	d.compactions.Inc()
	return nil
}

// Put implements Store: one durable append.
func (d *Disk) Put(msg *rlnc.Message) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: closed")
	}
	js, err := d.appendLocked(msg)
	if err != nil {
		return err
	}
	if err := js.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return d.maybeCompact(msg.FileID, js)
}

// PutBatch stores several messages with a single fsync per touched
// file-id.
func (d *Disk) PutBatch(msgs []*rlnc.Message) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: closed")
	}
	touched := make(map[uint64]*journalState)
	for _, msg := range msgs {
		js, err := d.appendLocked(msg)
		if err != nil {
			return err
		}
		touched[msg.FileID] = js
	}
	for fileID, js := range touched {
		if js.f != nil {
			if err := js.f.Sync(); err != nil {
				return fmt.Errorf("store: sync: %w", err)
			}
		}
		if err := d.maybeCompact(fileID, js); err != nil {
			return err
		}
	}
	return nil
}

// Messages implements Store.
func (d *Disk) Messages(fileID uint64) ([]*rlnc.Message, error) {
	return d.mem.Messages(fileID)
}

// Get implements Store.
func (d *Disk) Get(fileID, messageID uint64) (*rlnc.Message, error) {
	return d.mem.Get(fileID, messageID)
}

// Count implements Store.
func (d *Disk) Count(fileID uint64) int { return d.mem.Count(fileID) }

// Files implements Store.
func (d *Disk) Files() []uint64 { return d.mem.Files() }

// Drop implements Store and removes the data file durably.
func (d *Disk) Drop(fileID uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mem.Drop(fileID); err != nil {
		return err
	}
	path := d.pathFor(fileID)
	if js := d.journals[fileID]; js != nil {
		path = js.path
		if js.f != nil {
			js.f.Close()
		}
		delete(d.journals, fileID)
	}
	if err := d.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return d.fsys.SyncDir(d.dir)
}
