package discovery

// The DHT-backed implementation — the primary, trackerless discovery
// path. Values are soft state on the K nodes closest to each key, so
// the wrapper keeps a record book of everything it announced and
// refreshes each record before its TTL lapses; a peer that dies simply
// stops refreshing and ages out, exactly like a tracker announcement.

import (
	"context"
	"errors"
	"sync"
	"time"

	"asymshare/internal/dht"
)

// DHT resolves and announces through a dht.Node.
type DHT struct {
	node *dht.Node
	opts DHTOptions

	mu      sync.Mutex
	records map[record]time.Duration // announced (fileID, addr) -> ttl
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type record struct {
	fileID uint64
	addr   string
}

// DHTOptions tunes the DHT wrapper.
type DHTOptions struct {
	// ReannounceInterval is the refresh period for announced records;
	// zero derives it per record as ttl/2 (minimum 1s). Negative
	// disables the background refresher entirely.
	ReannounceInterval time.Duration

	// OwnNode, when true, makes Close also close the underlying node.
	OwnNode bool
}

// NewDHT wraps a joined dht.Node as a Discovery.
func NewDHT(node *dht.Node, opts DHTOptions) (*DHT, error) {
	if node == nil {
		return nil, errors.New("discovery: dht node required")
	}
	d := &DHT{
		node:    node,
		opts:    opts,
		records: make(map[record]time.Duration),
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	if opts.ReannounceInterval >= 0 {
		d.wg.Add(1)
		go d.refreshLoop()
	}
	return d, nil
}

// Node returns the underlying DHT node.
func (d *DHT) Node() *dht.Node { return d.node }

// Announce implements Discovery and registers the record for periodic
// TTL refresh.
func (d *DHT) Announce(ctx context.Context, fileID uint64, addr string, ttl time.Duration) error {
	if addr == "" {
		return ErrBadRecord
	}
	if ttl <= 0 {
		ttl = dht.DefaultTTL
	}
	if err := d.node.Announce(ctx, dht.KeyFromFileID(fileID), addr, ttl); err != nil {
		return err
	}
	d.mu.Lock()
	if !d.closed {
		d.records[record{fileID, addr}] = ttl
	}
	d.mu.Unlock()
	return nil
}

// Forget drops a record from the refresh book (e.g. after the peer
// stopped storing the file); the DHT copy ages out at its TTL.
func (d *DHT) Forget(fileID uint64, addr string) {
	d.mu.Lock()
	delete(d.records, record{fileID, addr})
	d.mu.Unlock()
}

// Lookup implements Discovery.
func (d *DHT) Lookup(ctx context.Context, fileID uint64) ([]string, error) {
	addrs, err := d.node.Lookup(ctx, dht.KeyFromFileID(fileID))
	if err != nil {
		if errors.Is(err, dht.ErrNotFound) {
			return nil, errors.Join(ErrNotFound, err)
		}
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, ErrNotFound
	}
	return addrs, nil
}

// Close stops the refresher (and the node when owned).
func (d *DHT) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.cancel()
	d.wg.Wait()
	if d.opts.OwnNode {
		return d.node.Close()
	}
	return nil
}

// refreshLoop re-announces every tracked record before it expires.
func (d *DHT) refreshLoop() {
	defer d.wg.Done()
	for {
		period := d.nextRefreshPeriod()
		timer := time.NewTimer(period)
		select {
		case <-d.ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		d.mu.Lock()
		batch := make(map[record]time.Duration, len(d.records))
		for r, ttl := range d.records {
			batch[r] = ttl
		}
		d.mu.Unlock()
		for r, ttl := range batch {
			ctx, cancel := context.WithTimeout(d.ctx, 10*time.Second)
			_ = d.node.Announce(ctx, dht.KeyFromFileID(r.fileID), r.addr, ttl)
			cancel()
			if d.ctx.Err() != nil {
				return
			}
		}
	}
}

// nextRefreshPeriod picks the refresh cadence: the configured interval,
// or half the shortest tracked TTL (floored at 1s), or a long idle nap
// when nothing is tracked yet.
func (d *DHT) nextRefreshPeriod() time.Duration {
	if d.opts.ReannounceInterval > 0 {
		return d.opts.ReannounceInterval
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	shortest := time.Duration(0)
	for _, ttl := range d.records {
		if shortest == 0 || ttl < shortest {
			shortest = ttl
		}
	}
	if shortest == 0 {
		return time.Second // nothing tracked; poll for first record
	}
	period := shortest / 2
	if period < time.Second {
		period = time.Second
	}
	return period
}

var _ Discovery = (*DHT)(nil)
