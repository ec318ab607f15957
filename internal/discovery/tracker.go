package discovery

// The tracker-backed implementation: the paper's central
// content-location service.

import (
	"context"
	"errors"
	"time"

	"asymshare/internal/tracker"
	"asymshare/internal/transport"
)

// trackerTimeout bounds one tracker round-trip, so a dead tracker
// fails a call that carries no deadline of its own.
const trackerTimeout = 3 * time.Second

// Tracker resolves and announces through one tracker server.
type Tracker struct {
	addr string
	tr   transport.Transport
}

// NewTracker returns a tracker-backed Discovery. tr nil means real TCP.
func NewTracker(addr string, tr transport.Transport) (*Tracker, error) {
	if addr == "" {
		return nil, errors.New("discovery: tracker address required")
	}
	if tr == nil {
		tr = transport.Default
	}
	return &Tracker{addr: addr, tr: tr}, nil
}

// Announce implements Discovery.
func (t *Tracker) Announce(ctx context.Context, fileID uint64, addr string, ttl time.Duration) error {
	if addr == "" {
		return ErrBadRecord
	}
	ctx, cancel := context.WithTimeout(ctx, trackerTimeout)
	defer cancel()
	return tracker.Announce(ctx, t.tr, t.addr, fileID, addr, ttl)
}

// Lookup implements Discovery.
func (t *Tracker) Lookup(ctx context.Context, fileID uint64) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, trackerTimeout)
	defer cancel()
	addrs, err := tracker.Lookup(ctx, t.tr, t.addr, fileID)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, ErrNotFound
	}
	return addrs, nil
}

var _ Discovery = (*Tracker)(nil)
