// Package discovery defines the content-location seam: mapping a
// generation's file-id to the addresses of the peers storing its
// messages. The paper assumes a central tracker plays this role
// (Sec. II); this package has two implementations, the tracker and the
// Kademlia-style DHT every storage peer answers on its own port. A
// caller picks one per call. Everything above (core, harness, CLI)
// programs against the interface and neither knows nor cares which
// mechanism resolved a peer.
package discovery

import (
	"context"
	"errors"
	"time"
)

// ErrNotFound is returned by Lookup when the mechanism worked but no
// peer is registered for the file-id.
var ErrNotFound = errors.New("discovery: no peers found")

// ErrBadRecord is returned for an announce with an empty address.
var ErrBadRecord = errors.New("discovery: malformed record")

// Discovery resolves file-ids to storage peer addresses.
//
// Announce registers addr as holding messages of fileID for ttl (zero
// requests the mechanism's maximum). Nothing re-announces: a record
// lapses one ttl after the call. Lookup returns the known addresses,
// or ErrNotFound if there are none.
type Discovery interface {
	Announce(ctx context.Context, fileID uint64, addr string, ttl time.Duration) error
	Lookup(ctx context.Context, fileID uint64) ([]string, error)
}
