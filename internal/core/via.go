package core

// DHT integration: fetch through a joined dht.Node, the one
// content-location mechanism. Every storage peer answers DHT RPCs on
// its own port (peer.Config.DHT), so any peer is a bootstrap. Nothing
// here writes a record: each holder announces its own address when the
// first PUT of a chunk lands, and again every half TTL while it keeps
// the chunk (peer.Config.DHT).

import (
	"context"
	"errors"
	"fmt"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/dht"
)

// FetchFileVia retrieves a file resolving each chunk's peers through
// the DHT — the user needs only the manifest, the secret, and a joined
// node. A chunk nobody announced fails with client.ErrNoPeers.
func (s *System) FetchFileVia(ctx context.Context, node *dht.Node,
	m *chunk.Manifest, secret []byte) ([]byte, client.FetchStats, error) {
	return s.client.FetchFileFrom(ctx, m, secret, func(ctx context.Context, i int) ([]string, error) {
		addrs, err := node.Lookup(ctx, dht.KeyFromFileID(m.Chunks[i].FileID))
		if errors.Is(err, dht.ErrNotFound) {
			return nil, fmt.Errorf("core: %w", errors.Join(client.ErrNoPeers, err))
		}
		if err != nil {
			return nil, fmt.Errorf("core: resolve: %w", err)
		}
		return addrs, nil
	})
}
