package discovery

// The tracker-backed implementation: the paper's central
// content-location service, now just one Discovery among several —
// typically the bootstrap seed behind the DHT in a Failover chain.

import (
	"context"
	"errors"
	"time"

	"asymshare/internal/tracker"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// DefaultTrackerTimeout bounds one tracker round-trip so a dead
// tracker fails fast enough for a Failover chain to consult the next
// mechanism within the caller's budget.
const DefaultTrackerTimeout = 3 * time.Second

// Tracker resolves and announces through one tracker server.
type Tracker struct {
	addr    string
	tr      transport.Transport
	timeout time.Duration
}

// NewTracker returns a tracker-backed Discovery. tr nil means real TCP.
func NewTracker(addr string, tr transport.Transport) (*Tracker, error) {
	if addr == "" {
		return nil, errors.New("discovery: tracker address required")
	}
	if tr == nil {
		tr = transport.Default
	}
	return &Tracker{addr: addr, tr: tr, timeout: DefaultTrackerTimeout}, nil
}

// SetTimeout overrides the per-call budget; d <= 0 restores the
// default.
func (t *Tracker) SetTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultTrackerTimeout
	}
	t.timeout = d
}

// Addr returns the tracker server address.
func (t *Tracker) Addr() string { return t.addr }

// callCtx derives the per-call context: the caller's, capped at the
// tracker timeout so one dead server cannot eat a chain's whole budget.
func (t *Tracker) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, t.timeout)
}

// Announce implements Discovery.
func (t *Tracker) Announce(ctx context.Context, fileID uint64, addr string, ttl time.Duration) error {
	if addr == "" {
		return ErrBadRecord
	}
	ctx, cancel := t.callCtx(ctx)
	defer cancel()
	err := tracker.Announce(ctx, t.tr, t.addr, fileID, addr, ttl)
	return classifyTracker(err)
}

// Lookup implements Discovery.
func (t *Tracker) Lookup(ctx context.Context, fileID uint64) ([]string, error) {
	ctx, cancel := t.callCtx(ctx)
	defer cancel()
	addrs, err := tracker.Lookup(ctx, t.tr, t.addr, fileID)
	if err != nil {
		return nil, classifyTracker(err)
	}
	if len(addrs) == 0 {
		return nil, ErrNotFound
	}
	return addrs, nil
}

// Close implements Discovery; the tracker client is stateless.
func (t *Tracker) Close() error { return nil }

// classifyTracker maps tracker protocol rejections onto the fatal
// ErrBadRecord class; everything else stays retriable.
func classifyTracker(err error) error {
	if err == nil {
		return nil
	}
	var remote *wire.RemoteError
	if errors.As(err, &remote) && remote.Code == wire.CodeBadRequest {
		return errors.Join(ErrBadRecord, err)
	}
	if errors.Is(err, tracker.ErrBadRequest) {
		return errors.Join(ErrBadRecord, err)
	}
	return err
}

var _ Discovery = (*Tracker)(nil)
