package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/fairshare"
	"asymshare/internal/fsx"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/store"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// spec is one workload: the cluster it boots, the file it moves and
// how its operations are bounded. The four committed workloads are in
// workloads.go; tests build their own to provoke failures.
type spec struct {
	name string
	why  string

	share    bool      // write path: ShareFile+UpdateFile; false: fetch path
	fileSize int       // bytes per file
	peers    int       // storage peers booted
	caps     []float64 // per-peer UploadBytesPerSec; nil = unshaped
	disk     bool      // peers on journaled store.OpenDisk temp dirs
	credit   []float64 // per-client ledger pre-credit; len = client count (default one client)
	warmups  int       // untimed primary ops before the window
	streams  bool      // second half of the window plays client.StreamFile to EOF

	// opDeadline bounds every operation: five times its link- or
	// CPU-limited estimate. Past it the op counts as failed.
	opDeadline time.Duration
}

func (s *spec) clients() int { return max(1, len(s.credit)) }

// capFor is peer i's upload cap, 0 when unshaped.
func (s *spec) capFor(i int) float64 {
	if len(s.caps) == 0 {
		return 0
	}
	return s.caps[i%len(s.caps)]
}

func (s *spec) capSum() float64 {
	var sum float64
	for i := 0; i < s.peers; i++ {
		sum += s.capFor(i)
	}
	return sum
}

// sharedFile is one file a client owns on the cluster.
type sharedFile struct {
	data   []byte
	handle core.Handle
	secret []byte
}

// cluster is an in-process network on the host loopback: storage peers
// built from the public constructors plus one core.System per client.
type cluster struct {
	spec    *spec
	nodes   []*peer.Node
	stores  []store.Store
	addrs   []string
	systems []*core.System
	files   []*sharedFile // files[i] belongs to systems[i]
	tmpDir  string

	// Traced runs only: one registry per peer (their per-requester
	// gauges would collide in a shared one), one for the clients and
	// the process-wide wire counters, and the counting transport.
	peerRegs  []*metrics.Registry
	clientReg *metrics.Registry
	counting  *countingTransport
}

// pageCacheFS is the real filesystem with the device flush taken out:
// Sync and SyncDir return at once, so journal appends end in the page
// cache. The sandbox's virtual disk takes anything from 2 to 10 ms per
// fsync from one minute to the next, which would make share_disk
// measure the host's other tenants; every other step of the journaled
// write path — create, append, CRC framing, remove — still runs.
type pageCacheFS struct{ fsx.FS }

func (p pageCacheFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{f}, nil
}

func (pageCacheFS) SyncDir(string) error { return nil }

type pageCacheFile struct{ fsx.File }

func (pageCacheFile) Sync() error { return nil }

// seedIdentity derives a deterministic key from the run seed, so the
// same seed boots the same identities.
func seedIdentity(seed int64, role string, i int) (*auth.Identity, error) {
	var raw [32]byte
	binary.LittleEndian.PutUint64(raw[:], uint64(seed))
	copy(raw[8:], role)
	raw[31] = byte(i)
	return auth.IdentityFromSeed(raw[:])
}

// seedData generates n bytes from the run seed.
func seedData(seed int64, salt, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed*1000003 + int64(salt))).Read(data)
	return data
}

// bootCluster starts the spec's peers and clients. With traced set,
// every public instrumentation seam is attached. scratch is where disk
// stores live.
func bootCluster(sp *spec, seed int64, traced bool, scratch string) (*cluster, error) {
	c := &cluster{spec: sp}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	if traced {
		c.clientReg = metrics.NewRegistry()
		c.counting = &countingTransport{inner: transport.Default}
		wire.Instrument(c.clientReg)
	}
	ids := make([]*auth.Identity, sp.clients())
	for i := range ids {
		id, err := seedIdentity(seed, "client", i)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	if sp.disk {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratch, sp.name+"-")
		if err != nil {
			return nil, err
		}
		c.tmpDir = dir
	}
	for i := 0; i < sp.peers; i++ {
		id, err := seedIdentity(seed, "peer", i)
		if err != nil {
			return nil, err
		}
		var st store.Store = store.NewMemory()
		if sp.disk {
			dir := filepath.Join(c.tmpDir, fmt.Sprintf("peer%d", i))
			if st, err = store.OpenDiskWith(dir, store.DiskOptions{FS: pageCacheFS{fsx.OS}}); err != nil {
				return nil, err
			}
		}
		cfg := peer.Config{Identity: id, Store: st, UploadBytesPerSec: sp.capFor(i)}
		if len(sp.credit) > 0 {
			ledger := fairshare.NewLedger(fairshare.DefaultInitialCredit)
			for j, amount := range sp.credit {
				ledger.Credit(ids[j].Fingerprint(), amount)
			}
			cfg.Ledger = ledger
		}
		if traced {
			reg := metrics.NewRegistry()
			c.peerRegs = append(c.peerRegs, reg)
			cfg.Metrics = reg
		}
		node, err := peer.New(cfg)
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, st)
		c.nodes = append(c.nodes, node)
		if err := node.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		c.addrs = append(c.addrs, node.Addr().String())
	}
	for _, id := range ids {
		var opts client.Options
		if traced {
			opts.Transport = c.counting
		}
		sys, err := core.NewSystem(id, nil, core.WithClientOptions(opts))
		if err != nil {
			return nil, err
		}
		if traced {
			sys.Client().Instrument(c.clientReg)
		}
		c.systems = append(c.systems, sys)
	}
	ok = true
	return c, nil
}

// preShare gives every client its own file on all peers.
func (c *cluster) preShare(ctx context.Context, seed int64) error {
	for i, sys := range c.systems {
		data := seedData(seed, i, c.spec.fileSize)
		res, err := sys.ShareFile(ctx, fmt.Sprintf("bench-%d.bin", i), data, c.addrs)
		if err != nil {
			return fmt.Errorf("pre-share for client %d: %w", i, err)
		}
		c.files = append(c.files, &sharedFile{data: data, handle: res.Handle, secret: res.Secret})
	}
	return nil
}

// dropFile removes a shared file's generations from every store, so a
// share loop's footprint stays one file deep.
func (c *cluster) dropFile(h *core.Handle) error {
	for _, st := range c.stores {
		for _, ch := range h.Manifest.Chunks {
			if err := st.Drop(ch.FileID); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops every node, closes disk stores and removes their files.
func (c *cluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // shutdown of a benchmark-owned node; nothing to recover
	}
	for _, st := range c.stores {
		if d, ok := st.(*store.Disk); ok {
			_ = d.Close() // journals are deleted next
		}
	}
	if c.tmpDir != "" {
		_ = os.RemoveAll(c.tmpDir) // best-effort scratch cleanup
	}
	if c.clientReg != nil {
		wire.Instrument(nil)
	}
}
