package peer_test

// Compile-time pins for the fairshare, peer, store and core surface
// cmd/bench builds its clusters and reads its layer metrics from — see
// cmd/bench/cluster.go, run.go and layers.go. cmd/bench is a module of
// its own, so `go build ./... && go test ./...` never compiles it:
// without these a rename here surfaces only as a benchmark that no
// longer builds, and the benchmark may not be edited to follow.
// (internal/client/benchapi_test.go pins client, rlnc and chunk.)

import (
	"context"
	"net"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/fairshare"
	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

var (
	_ func(float64) *fairshare.Ledger                = fairshare.NewLedger
	_ func(*fairshare.Ledger, fairshare.ID, float64) = (*fairshare.Ledger).Credit
	_ float64                                        = fairshare.DefaultInitialCredit
	_ string                                         = fairshare.MetricAllocDuration

	_ = peer.Config{
		Identity:          (*auth.Identity)(nil),
		Store:             store.Store(nil),
		UploadBytesPerSec: float64(0),
		Ledger:            (*fairshare.Ledger)(nil),
		Metrics:           (*metrics.Registry)(nil),
	}
	_ func(peer.Config) (*peer.Node, error) = peer.New
	_ func(*peer.Node, string) error        = (*peer.Node).Start
	_ func(*peer.Node) net.Addr             = (*peer.Node).Addr
	_ func(*peer.Node) error                = (*peer.Node).Close
	_                                       = []string{
		peer.MetricServedBytes, peer.MetricConnections, peer.MetricOverloadAdmitted,
		peer.MetricOverloadSheds, peer.MetricReallocDur, peer.MetricWaitSeconds,
		peer.MetricThrottled, peer.MetricGrantedRate,
	}

	_ store.Store                                          = (*store.Memory)(nil)
	_ store.Store                                          = (*store.Disk)(nil)
	_ func() *store.Memory                                 = store.NewMemory
	_ func(string) (*store.Disk, error)                    = store.OpenDisk
	_ func(string, store.DiskOptions) (*store.Disk, error) = store.OpenDiskWith
	_ func(*store.Disk) error                              = (*store.Disk).Close
	_ func(store.Store, uint64) error                      = store.Store.Drop
	_                                                      = store.DiskOptions{FS: fsx.FS(nil)}
	_                                                      = []string{store.MetricOpDuration, store.MetricOpErrors}

	_ func(*auth.Identity, *auth.TrustSet, ...core.Option) (*core.System, error)                            = core.NewSystem
	_ func(client.Options) core.Option                                                                      = core.WithClientOptions
	_ func(*core.System, context.Context, string, []byte, []string) (*core.ShareResult, error)              = (*core.System).ShareFile
	_ func(*core.System, context.Context, *core.Handle, []byte) ([]byte, client.FetchStats, error)          = (*core.System).FetchFile
	_ func(*core.System, context.Context, *core.Handle, []byte, []byte, []byte) (*core.UpdateResult, error) = (*core.System).UpdateFile
	_ func(*core.System) *client.Client                                                                     = (*core.System).Client
	_ func(*core.System) chunk.Plan                                                                         = (*core.System).Plan
	_                                                                                                       = core.Handle{Manifest: chunk.Manifest{}, Peers: []string(nil)}
	_                                                                                                       = core.ShareResult{Handle: core.Handle{}, Secret: []byte(nil), MessagesSent: int(0), BytesSent: int64(0)}
	_                                                                                                       = core.UpdateResult{BytesSent: int64(0)}
)
