package discovery

// The DHT-backed implementation, the trackerless path. Values are soft
// state on the K nodes closest to each key: an announced record lapses
// after its TTL unless announced again.

import (
	"context"
	"errors"
	"time"

	"asymshare/internal/dht"
)

// DHT resolves and announces through a joined dht.Node. The caller
// owns the node and closes it.
type DHT struct {
	node *dht.Node
}

// NewDHT wraps a joined dht.Node as a Discovery.
func NewDHT(node *dht.Node) *DHT { return &DHT{node: node} }

// Announce implements Discovery.
func (d *DHT) Announce(ctx context.Context, fileID uint64, addr string, ttl time.Duration) error {
	if addr == "" {
		return ErrBadRecord
	}
	return d.node.Announce(ctx, dht.KeyFromFileID(fileID), addr, ttl)
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

var _ Discovery = (*DHT)(nil)
