package core

// Discovery-seam integration: announce and fetch against a
// discovery.Discovery, the tracker or the DHT, so the layers above
// never hard-code a location mechanism. A caller builds the one it
// wants (discovery.NewTracker, discovery.NewDHT) and hands it here;
// these are the only announce and discovery-fetch entry points. An
// announcement lives one TTL: nothing here announces it again.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/discovery"
)

// AnnounceHandleVia registers every (chunk file-id -> peer address)
// pair of a handle with a discovery mechanism, honoring per-chunk
// placement. A zero ttl requests the mechanism's maximum.
func (s *System) AnnounceHandleVia(ctx context.Context, d discovery.Discovery, h *Handle, ttl time.Duration) error {
	if h == nil || len(h.Peers) == 0 {
		return fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	for i, info := range h.Manifest.Chunks {
		for _, addr := range h.PeersForChunk(i) {
			if err := d.Announce(ctx, info.FileID, addr, ttl); err != nil {
				return fmt.Errorf("core: announce chunk %d: %w", info.FileID, err)
			}
		}
	}
	return nil
}

// FetchFileVia retrieves a file resolving each chunk's peers through a
// discovery mechanism — the user needs only the manifest, the secret,
// and a way to discover.
func (s *System) FetchFileVia(ctx context.Context, d discovery.Discovery,
	m *chunk.Manifest, secret []byte) ([]byte, client.FetchStats, error) {
	return s.client.FetchFileFrom(ctx, m, secret, func(ctx context.Context, i int) ([]string, error) {
		addrs, err := d.Lookup(ctx, m.Chunks[i].FileID)
		if errors.Is(err, discovery.ErrNotFound) || (err == nil && len(addrs) == 0) {
			return nil, fmt.Errorf("core: %w", errors.Join(client.ErrNoPeers, err))
		}
		if err != nil {
			return nil, fmt.Errorf("core: resolve: %w", err)
		}
		return addrs, nil
	})
}
