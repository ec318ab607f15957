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
// Payloads live on disk only. What the store keeps in memory per
// journal is an index, message-id → (offset, length) of the message's
// latest record, so a peer's heap does not grow with what it holds.
// Get, Messages and compaction read records back by offset and check
// each one — CRC, length, and that it is the (file-id, message-id) the
// index named — before anything is served from it.
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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

var errClosed = errors.New("store: closed")

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

// recordRef locates a message's latest record in its journal.
type recordRef struct {
	off int64 // where the framed record starts
	n   int64 // framed length: record header plus payload
}

// journalState tracks one journal. Its index always describes the file
// at path: every path that replaces the file replaces the index with it.
type journalState struct {
	path  string
	size  int64                // bytes on disk
	live  int64                // header + live records
	index map[uint64]recordRef // message-id → its latest record

	// f is the journal's one handle, read-write in append mode. The
	// append path opens it, or a read does when none is open — under
	// openMu, because readers share d.mu. appendable says the append
	// path has since re-checked the file's size and made its directory
	// entry durable; a handle a read opened has had neither.
	openMu     sync.Mutex
	f          fsx.File
	appendable bool

	// broken means a failed append may have left partial record bytes
	// at the tail; the file must be truncated back to size before the
	// next append, or the garbage would corrupt the framing mid-file.
	broken bool
}

func newJournal(path string) *journalState {
	return &journalState{path: path, live: headerLen, index: make(map[uint64]recordRef)}
}

// note indexes messageID's record of n bytes at off, superseding any
// earlier record of the same message.
func (js *journalState) note(messageID uint64, off, n int64) {
	if old, ok := js.index[messageID]; ok {
		js.live -= old.n
	}
	js.index[messageID] = recordRef{off: off, n: n}
	js.live += n
}

// closeHandle closes the journal's handle, if one is open; the next
// append or read opens another.
func (js *journalState) closeHandle() error {
	if js.f == nil {
		return nil
	}
	err := js.f.Close()
	js.f, js.appendable = nil, false
	return err
}

// Disk is a Store persisted under a directory.
type Disk struct {
	dir  string
	fsys fsx.FS

	compactMinBytes int64
	compactFactor   float64

	// mu is shared by reads (Get, Messages, Count, Files), which touch
	// the file only through ReadAt; Put, Drop, compaction and Close
	// hold it alone.
	mu       sync.RWMutex
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
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// Close flushes and closes every open journal. The store must not be
// used afterwards; reads return an error.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, js := range d.journals {
		if js.appendable {
			if err := js.f.Sync(); err != nil && first == nil {
				first = fmt.Errorf("store: close: %w", err)
			}
		}
		if err := js.closeHandle(); err != nil && first == nil {
			first = fmt.Errorf("store: close: %w", err)
		}
	}
	return first
}

// --- recovery -------------------------------------------------------

// recoverFile indexes one data file, repairing or quarantining as
// needed. Only directory-level failures are returned; per-file damage
// is absorbed.
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

// recoverJournal scans a journal-format file positioned after its
// 4-byte magic. Every record is read through one reused buffer and
// checked; only its offset is kept.
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
		return d.quarantine(path, err)
	}
	var (
		js     = newJournal(path)
		rec    []byte
		offset = int64(headerLen)
	)
	for offset < size {
		if rec, err = readRecord(f, size-offset, rec); err != nil {
			break
		}
		fid, mid := recordIDs(rec)
		if fid != fileID {
			err = fmt.Errorf("%w: record file-id %d in journal %d", errCorruptRecord, fid, fileID)
			break
		}
		js.note(mid, offset, int64(len(rec)))
		offset += int64(len(rec))
	}
	switch {
	case err == nil:
	case errors.Is(err, errTornTail):
		if err := d.truncateTail(path, offset); err != nil {
			return err
		}
	default:
		if err := d.quarantine(path, err); err != nil {
			return err
		}
		if offset == headerLen {
			return nil
		}
		// Re-journal the valid prefix under the original name. It is the
		// same bytes, so the offsets the scan took index it as is.
		prefix := make([]byte, offset)
		if _, err := f.ReadAt(prefix, 0); err != nil {
			return fmt.Errorf("store: quarantine %s: %w", path, err)
		}
		if err := fsx.WriteFileAtomic(d.fsys, path, prefix, 0o644); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	js.size = offset
	d.journals[fileID] = js
	return nil
}

// recoverLegacy parses a pre-journal file ([4-byte len][Fig. 3 record]
// concatenation, no checksums) positioned after a 4-byte read, and
// migrates it to the journal format. Without checksums a parse failure
// cannot be blamed on a torn tail, so damage quarantines the file,
// keeping the structurally-sound prefix. Legacy files are small and
// rare, so this path holds the parsed messages.
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
		if err := d.quarantine(path, broken); err != nil {
			return err
		}
		return d.journalMessages(recs)
	}
	d.stats.MigratedLegacy++
	if err := d.journalMessages(recs); err != nil {
		return err
	}
	for _, js := range d.journals {
		if js.path == path {
			return nil // the name now holds a journal
		}
	}
	if err := d.fsys.Remove(path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return d.fsys.SyncDir(d.dir)
}

// journalMessages atomically writes parsed legacy records as journals,
// one per file-id, and indexes what it wrote.
func (d *Disk) journalMessages(recs []*rlnc.Message) error {
	byFile := make(map[uint64][]*rlnc.Message)
	var order []uint64
	for _, msg := range recs {
		if _, ok := byFile[msg.FileID]; !ok {
			order = append(order, msg.FileID)
		}
		byFile[msg.FileID] = append(byFile[msg.FileID], msg)
	}
	for _, fid := range order {
		js := newJournal(d.pathFor(fid))
		buf := encodeHeader(fid)
		for _, msg := range byFile[fid] {
			js.note(msg.MessageID, int64(len(buf)), int64(recordHdrLen+len(msg.Payload)))
			buf = appendRecord(buf, msg)
		}
		if err := fsx.WriteFileAtomic(d.fsys, js.path, buf, 0o644); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		js.size = int64(len(buf))
		d.journals[fid] = js
	}
	return nil
}

// quarantine renames a damaged file to `<name>.corrupt`; the caller
// re-journals whatever valid prefix it recovered. The cause is
// absorbed, not returned: one rotten file must not stop the node from
// serving everything else it holds.
func (d *Disk) quarantine(path string, cause error) error {
	d.stats.QuarantinedFiles++
	d.quarantined.Inc()
	if err := d.fsys.Rename(path, path+".corrupt"); err != nil {
		return fmt.Errorf("store: quarantine %s (%v): %w", path, cause, err)
	}
	if err := d.fsys.SyncDir(d.dir); err != nil {
		return fmt.Errorf("store: quarantine %s: %w", path, err)
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

// --- writes ---------------------------------------------------------

func (d *Disk) pathFor(fileID uint64) string {
	return filepath.Join(d.dir, strconv.FormatUint(fileID, 16)+".dat")
}

// ensureJournal returns the journal for fileID ready to append to,
// creating file and header on first use. The directory entry is made
// durable before the first record is acknowledged.
func (d *Disk) ensureJournal(fileID uint64) (*journalState, error) {
	js := d.journals[fileID]
	if js == nil {
		js = newJournal(d.pathFor(fileID))
		d.journals[fileID] = js
	}
	if js.appendable {
		return js, nil
	}
	// Re-stat before the first append through a handle: after a failed
	// compaction the tracked size can be stale (the rename may or may
	// not have landed), and repair truncation must target the file that
	// is actually there.
	switch info, err := d.fsys.Stat(js.path); {
	case err == nil:
		js.size = info.Size()
	case errors.Is(err, fs.ErrNotExist):
		js.size = 0
	default:
		return nil, fmt.Errorf("store: %w", err)
	}
	if js.f == nil {
		f, err := d.fsys.OpenFile(js.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		js.f = f
	}
	if js.size < headerLen {
		if js.size > 0 {
			// A previous header write failed partway: start over.
			if err := js.f.Truncate(0); err != nil {
				js.closeHandle()
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		if _, err := js.f.Write(encodeHeader(fileID)); err != nil {
			js.closeHandle()
			return nil, fmt.Errorf("store: %w", err)
		}
		// A fresh file holds no records: whatever the index still named
		// went with the file that was here.
		clear(js.index)
		js.size, js.live = headerLen, headerLen
	}
	// Unconditional on reopen: the directory entry (creation here, or a
	// compaction rename whose own dir fsync failed) must be durable
	// before the next append is acknowledged, or a crash could revert
	// the name and take acknowledged records with it.
	if err := d.fsys.SyncDir(d.dir); err != nil {
		js.closeHandle()
		return nil, fmt.Errorf("store: %w", err)
	}
	js.appendable = true
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
// into d.rec, so msg is copied once — into the journal write — and
// nothing is allocated. The index is only updated once the bytes are
// written, and callers sync before returning success, so an
// acknowledged Put is always durable; on error the index may lag the
// journal by a torn record, which recovery cuts.
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
	js.note(msg.MessageID, js.size, int64(len(d.rec)))
	js.size += int64(len(d.rec))
	return js, nil
}

// maybeCompact rewrites a journal whose dead bytes dominate. The live
// records are read back from the journal, checked, and laid out in
// message-id order; the index moves to the new offsets exactly when the
// rename puts the new file under the journal's name. The append handle
// is closed and reopened by the next append or read.
func (d *Disk) maybeCompact(fileID uint64, js *journalState) error {
	if js.size < d.compactMinBytes || float64(js.size) <= d.compactFactor*float64(js.live) {
		return nil
	}
	ids := make([]uint64, 0, len(js.index))
	for id := range js.index {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf := make([]byte, js.live)
	copy(buf, encodeHeader(fileID))
	index := make(map[uint64]recordRef, len(ids))
	at := int64(headerLen)
	for _, id := range ids {
		ref := js.index[id]
		if err := readRecordAt(js.f, buf[at:at+ref.n], ref.off, fileID, id); err != nil {
			return fmt.Errorf("store: compact %s: %w", js.path, err)
		}
		index[id] = recordRef{off: at, n: ref.n}
		at += ref.n
	}
	if err := js.closeHandle(); err != nil {
		return fmt.Errorf("store: compact %s: %w", js.path, err)
	}
	if err := fsx.WriteFileAtomic(d.fsys, js.path, buf, 0o644); err != nil {
		// The rename may have landed without its directory fsync; the
		// next append's reopen re-syncs the directory. Either way the
		// index must describe the journal the name points at now. The
		// compacted file is strictly shorter than the one it replaces
		// (compaction only runs above CompactFactor > 1 times the live
		// size), so its length tells the two apart.
		if info, serr := d.fsys.Stat(js.path); serr == nil && info.Size() == int64(len(buf)) {
			js.index, js.size = index, int64(len(buf))
		}
		return fmt.Errorf("store: %w", err)
	}
	js.index, js.size = index, int64(len(buf))
	js.broken = false
	d.compactions.Inc()
	return nil
}

// Put implements Store: one durable append.
func (d *Disk) Put(msg *rlnc.Message) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
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

// --- reads ----------------------------------------------------------

// readerLocked returns fileID's journal and its open handle, opening
// one if none is. The caller holds d.mu for reading, which keeps the
// handle open until it lets go.
func (d *Disk) readerLocked(fileID uint64) (*journalState, fsx.File, error) {
	if d.closed {
		return nil, nil, errClosed
	}
	js := d.journals[fileID]
	if js == nil || len(js.index) == 0 {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownFile, fileID)
	}
	js.openMu.Lock()
	defer js.openMu.Unlock()
	if js.f == nil {
		f, err := d.fsys.OpenFile(js.path, os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		js.f = f
	}
	return js, js.f, nil
}

// Messages implements Store. The payloads share one buffer, filled by
// one ReadAt per record.
func (d *Disk) Messages(fileID uint64) ([]*rlnc.Message, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	js, f, err := d.readerLocked(fileID)
	if err != nil {
		return nil, err
	}
	msgs := make([]rlnc.Message, 0, len(js.index))
	for id := range js.index {
		msgs = append(msgs, rlnc.Message{FileID: fileID, MessageID: id})
	}
	slices.SortFunc(msgs, func(a, b rlnc.Message) int { return cmp.Compare(a.MessageID, b.MessageID) })
	buf := make([]byte, js.live-headerLen)
	out := make([]*rlnc.Message, len(msgs))
	var at int64
	for i := range msgs {
		m := &msgs[i]
		ref := js.index[m.MessageID]
		rec := buf[at : at+ref.n : at+ref.n]
		if err := readRecordAt(f, rec, ref.off, fileID, m.MessageID); err != nil {
			return nil, err
		}
		m.Payload = rec[recordHdrLen:]
		out[i] = m
		at += ref.n
	}
	return out, nil
}

// Get implements Store.
func (d *Disk) Get(fileID, messageID uint64) (*rlnc.Message, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	js, f, err := d.readerLocked(fileID)
	if err != nil {
		return nil, err
	}
	ref, ok := js.index[messageID]
	if !ok {
		return nil, fmt.Errorf("%w: %d message %d", ErrUnknownFile, fileID, messageID)
	}
	rec := make([]byte, ref.n)
	if err := readRecordAt(f, rec, ref.off, fileID, messageID); err != nil {
		return nil, err
	}
	return &rlnc.Message{FileID: fileID, MessageID: messageID, Payload: rec[recordHdrLen:]}, nil
}

// Count implements Store.
func (d *Disk) Count(fileID uint64) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if js := d.journals[fileID]; js != nil {
		return len(js.index)
	}
	return 0
}

// Files implements Store.
func (d *Disk) Files() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]uint64, 0, len(d.journals))
	for id, js := range d.journals {
		if len(js.index) > 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Drop implements Store and removes the data file durably. The index
// is forgotten only once the file is gone.
func (d *Disk) Drop(fileID uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := d.pathFor(fileID)
	if js := d.journals[fileID]; js != nil {
		path = js.path
		js.closeHandle()
	}
	if err := d.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	delete(d.journals, fileID)
	return d.fsys.SyncDir(d.dir)
}
