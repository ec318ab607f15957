package core

// DHT integration: announce and fetch through a joined dht.Node, the
// one content-location mechanism. Every storage peer answers DHT RPCs
// on its own port (peer.Config.DHT), so any peer is a bootstrap. An
// announcement lives one TTL: nothing here announces it again. The
// record stays alive because the peer holding the chunk re-announces
// it every half TTL.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/dht"
)

// AnnounceHandleVia registers every (chunk file-id -> peer address)
// pair of a handle in the DHT through node, honoring per-chunk
// placement. A zero ttl requests the node's maximum.
func (s *System) AnnounceHandleVia(ctx context.Context, node *dht.Node, h *Handle, ttl time.Duration) error {
	if h == nil || len(h.Peers) == 0 {
		return fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	for i, info := range h.Manifest.Chunks {
		for _, addr := range h.PeersForChunk(i) {
			if err := node.Announce(ctx, dht.KeyFromFileID(info.FileID), addr, ttl); err != nil {
				return fmt.Errorf("core: announce chunk %d: %w", info.FileID, err)
			}
		}
	}
	return nil
}

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
