package fairshare

// Periodic ledger checkpointing. The receipt ledger R_i is the node's
// incentive memory: Eq. (2) allocates upload bandwidth in proportion to
// it, so a peer that loses its ledger on a crash also forgets who
// earned standing with it — exactly the state Theorem 1's "cooperation
// is optimal" argument assumes persists. The Checkpointer bounds that
// loss to one checkpoint interval.
//
// Checkpoints alternate between two slots (`path` and `path.1`), each
// written with the full fsync discipline of fsx.WriteFileAtomic (temp
// file fsync, rename, parent-directory fsync) and stamped with a
// monotonically increasing generation. Recovery reads both slots and
// the newest parseable generation wins, so a crash mid-write — or bit
// rot in one slot — costs at most one interval of credits, never the
// whole ledger.

import (
	"context"
	"errors"
	"io/fs"
	"sync"
	"time"

	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
)

// DefaultCheckpointInterval is how often a dirty ledger is saved when
// the caller does not choose an interval.
const DefaultCheckpointInterval = 10 * time.Second

// Checkpoint metric names (see DESIGN.md §7).
const (
	MetricCheckpoints          = "fairshare_checkpoints_total"
	MetricCheckpointErrors     = "fairshare_checkpoint_errors_total"
	MetricCheckpointDuration   = "fairshare_checkpoint_duration_seconds"
	MetricCheckpointGeneration = "fairshare_checkpoint_generation"
)

// CheckpointConfig configures a Checkpointer.
type CheckpointConfig struct {
	// Ledger is the ledger to persist. Required.
	Ledger *Ledger

	// Path is the primary slot; the secondary is Path + ".1".
	Path string

	// Interval between periodic saves; DefaultCheckpointInterval if
	// zero or negative.
	Interval time.Duration

	// FS is the filesystem seam; nil means fsx.OS.
	FS fsx.FS

	// Gen is the generation recovered from disk (see RecoverLedger);
	// the first checkpoint is stamped Gen+1.
	Gen uint64

	// Metrics receives checkpoint counters; nil disables.
	Metrics *metrics.Registry
}

// Checkpointer periodically saves a ledger with alternating dual-slot
// writes. Create with NewCheckpointer; drive with Run and/or Checkpoint.
type Checkpointer struct {
	ledger   *Ledger
	path     string
	interval time.Duration
	fsys     fsx.FS

	mu       sync.Mutex
	gen      uint64 // generation of the last completed checkpoint
	savedRev uint64 // ledger revision at that checkpoint
	dirty    bool   // no checkpoint yet (savedRev unset)

	saves    *metrics.Counter
	errs     *metrics.Counter
	duration *metrics.Histogram
	genGauge *metrics.Gauge
}

// NewCheckpointer builds a Checkpointer; it does not start any
// goroutine.
func NewCheckpointer(cfg CheckpointConfig) *Checkpointer {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultCheckpointInterval
	}
	if cfg.FS == nil {
		cfg.FS = fsx.OS
	}
	return &Checkpointer{
		ledger:   cfg.Ledger,
		path:     cfg.Path,
		interval: cfg.Interval,
		fsys:     cfg.FS,
		gen:      cfg.Gen,
		dirty:    true,
		saves:    cfg.Metrics.Counter(MetricCheckpoints, "Ledger checkpoints written."),
		errs:     cfg.Metrics.Counter(MetricCheckpointErrors, "Ledger checkpoints that failed."),
		duration: cfg.Metrics.Histogram(MetricCheckpointDuration, "Time to write one ledger checkpoint.", metrics.UnitSeconds),
		genGauge: cfg.Metrics.Gauge(MetricCheckpointGeneration, "Generation of the newest ledger checkpoint."),
	}
}

// slotPath returns the file a given generation is written to.
func (c *Checkpointer) slotPath(gen uint64) string {
	if gen%2 == 0 {
		return c.path + ".1"
	}
	return c.path
}

// Checkpoint saves the ledger now if it changed since the last save.
// Safe for concurrent use; saves are serialized.
func (c *Checkpointer) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rev := c.ledger.Rev()
	if !c.dirty && rev == c.savedRev {
		return nil
	}
	start := time.Now()
	gen := c.gen + 1
	data, err := c.ledger.marshal(gen)
	if err != nil {
		c.errs.Inc()
		return err
	}
	if err := fsx.WriteFileAtomic(c.fsys, c.slotPath(gen), data, 0o644); err != nil {
		c.errs.Inc()
		return err
	}
	c.gen = gen
	c.savedRev = rev
	c.dirty = false
	c.saves.Inc()
	c.genGauge.Set(float64(gen))
	c.duration.ObserveSince(start)
	return nil
}

// Gen returns the generation of the last completed checkpoint.
func (c *Checkpointer) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Run checkpoints on every interval tick until ctx is cancelled, then
// writes one final checkpoint so an orderly shutdown loses nothing.
// Errors are absorbed (and counted): a full disk must not stop the
// node, and the previous checkpoint slots remain intact.
func (c *Checkpointer) Run(ctx context.Context) {
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Checkpoint()
		case <-ctx.Done():
			c.Checkpoint()
			return
		}
	}
}

// LedgerRecovery describes what RecoverLedger found.
type LedgerRecovery struct {
	// Gen is the generation of the slot that won (0 if none loaded).
	Gen uint64

	// Loaded reports whether any slot was read successfully; false on
	// first boot or when every slot was damaged.
	Loaded bool

	// CorruptSlots counts slots that existed but would not parse.
	CorruptSlots int
}

// RecoverLedger loads the newest valid checkpoint from the dual slots
// of path; with no checkpoint on disk (first boot) it returns a fresh
// ledger with the given initial credit. Damage is absorbed: if both
// slots are corrupt the node restarts with a fresh ledger rather than
// refusing to boot, and the damage is reported in LedgerRecovery.
func RecoverLedger(fsys fsx.FS, path string, initial float64) (*Ledger, LedgerRecovery, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	var (
		best *Ledger
		rec  LedgerRecovery
	)
	for _, slot := range []string{path, path + ".1"} {
		data, err := fsx.ReadFile(fsys, slot)
		if err != nil {
			// Missing slots are normal (first boot, or only one
			// generation ever written); other read errors count as
			// corrupt but do not block recovery of the sibling slot.
			if !errors.Is(err, fs.ErrNotExist) {
				rec.CorruptSlots++
			}
			continue
		}
		doc, err := parseDoc(data)
		if err != nil {
			rec.CorruptSlots++
			continue
		}
		l, err := ledgerFromDoc(doc)
		if err != nil {
			rec.CorruptSlots++
			continue
		}
		if best == nil || doc.Gen > rec.Gen {
			best, rec.Gen = l, doc.Gen
		}
	}
	if best == nil {
		return NewLedger(initial), rec, nil
	}
	rec.Loaded = true
	return best, rec, nil
}
