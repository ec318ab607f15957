// Package harness boots a full asymshare deployment — the owner's
// home peer, N storage peers and any number of user clients —
// entirely in-process over a netsim fabric. Chaos tests use it to
// drive the real protocol stack (wire framing, mutual handshakes,
// rlnc streams, audits, the fairness ledger) through latency, loss,
// partitions and blackholes, with every fault sequence replayable
// from the fabric seed.
package harness

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"os"
	"strconv"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/fsx"
	"asymshare/internal/gf"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

// Host names used by the cluster. Storage peers are "peer0",
// "peer1", … and user clients typically dial from HostUser.
const (
	HostHome = "home"
	HostUser = "user"
)

// Seed returns the fabric seed for a test: NETSIM_SEED when set (so a
// logged failure replays its seeded draws), otherwise the fallback. The
// chosen seed is logged either way — a failing run prints the line to
// rerun. What goroutines race to decide (a swarm's concurrent joins,
// say) does not replay.
func Seed(t *testing.T, fallback int64) int64 {
	t.Helper()
	seed := fallback
	if env := os.Getenv("NETSIM_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad NETSIM_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("netsim seed %d (replay with NETSIM_SEED=%d)", seed, seed)
	return seed
}

// Peer is one storage peer in the cluster.
type Peer struct {
	Host  string
	ID    *auth.Identity
	Node  *peer.Node
	Store *store.Memory
	Addr  string

	// Digests is the peer's storage obligation from the last
	// SeedGeneration call — the audit target set.
	Digests map[uint64]rlnc.Digest
}

// Cluster is a booted in-process deployment.
type Cluster struct {
	Fabric   *netsim.Fabric
	Owner    *auth.Identity
	Home     *peer.Node // the owner's own peer; holds the fairness ledger
	Peers    []*Peer
	HomeAddr string

	t *testing.T
}

func testIdentity(t *testing.T, b byte) *auth.Identity {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// Secret is the deterministic per-file coding secret the harness uses.
func Secret() []byte {
	s := make([]byte, rlnc.SecretLen)
	for i := range s {
		s[i] = byte(i + 1)
	}
	return s
}

// Start boots the owner's home peer and n storage peers
// over a fresh fabric with the given seed. All nodes are cleaned up
// with the test.
func Start(t *testing.T, seed int64, n int) *Cluster {
	t.Helper()
	f := netsim.NewFabric(seed)
	c := &Cluster{Fabric: f, Owner: testIdentity(t, 199), t: t}

	home, err := peer.New(peer.Config{
		Identity:  testIdentity(t, 200),
		Store:     store.NewMemory(),
		Owner:     c.Owner.Public(),
		Ledger:    fairshare.NewLedger(0),
		Transport: f.Host(HostHome),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Start(":0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { home.Close() })
	c.Home = home
	c.HomeAddr = home.Addr().String()

	for i := 0; i < n; i++ {
		c.startPeer("peer"+strconv.Itoa(i), byte(1+i), peer.Config{})
	}
	return c
}

// startPeer boots a memory-backed storage peer on its own fabric host
// and appends it to the cluster. cfg carries whatever the scenario
// needs beyond the defaults — upload cap, burst, admission bound,
// allocator; identity, store and transport are filled in here.
func (c *Cluster) startPeer(host string, key byte, cfg peer.Config) *Peer {
	c.t.Helper()
	st := store.NewMemory()
	cfg.Identity, cfg.Store, cfg.Transport = testIdentity(c.t, key), st, c.Fabric.Host(host)
	node, err := peer.New(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := node.Start(":0"); err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { node.Close() })
	p := &Peer{Host: host, ID: cfg.Identity, Node: node, Store: st, Addr: node.Addr().String()}
	c.Peers = append(c.Peers, p)
	return p
}

// DurablePeer is a storage peer whose state survives crashes: its
// message store is a journaled store.Disk and its receipt ledger
// checkpoints to the same filesystem — an fsx.ErrFS, so tests can
// power-cut the peer's disk deterministically and reboot it.
type DurablePeer struct {
	Host       string
	ID         *auth.Identity
	Owner      ed25519.PublicKey
	FS         *fsx.ErrFS
	Dir        string // store directory on FS
	LedgerPath string // ledger checkpoint path on FS

	Node  *peer.Node
	Store *store.Disk
	Addr  string
}

// StartDurablePeer boots a storage peer on the cluster fabric whose
// store and ledger live on the given ErrFS. owner, if non-nil, may
// send the peer ledger feedback. Restart reboots it after a crash.
func (c *Cluster) StartDurablePeer(efs *fsx.ErrFS, host string, keyByte byte, owner ed25519.PublicKey) *DurablePeer {
	c.t.Helper()
	p := &DurablePeer{
		Host:       host,
		ID:         testIdentity(c.t, keyByte),
		Owner:      owner,
		FS:         efs,
		Dir:        "/" + host + "/store",
		LedgerPath: "/" + host + "/ledger",
	}
	if err := efs.MkdirAll(p.Dir, 0o755); err != nil {
		c.t.Fatal(err)
	}
	if err := p.boot(c); err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { p.Node.Close() })
	return p
}

// boot (re)opens the journaled store and starts a node on the peer's
// fabric host. The periodic checkpoint timer is effectively disabled
// so tests control durability points via Node.CheckpointNow.
func (p *DurablePeer) boot(c *Cluster) error {
	st, err := store.OpenDiskWith(p.Dir, store.DiskOptions{FS: p.FS})
	if err != nil {
		return err
	}
	node, err := peer.New(peer.Config{
		Identity:           p.ID,
		Store:              st,
		Owner:              p.Owner,
		LedgerPath:         p.LedgerPath,
		CheckpointInterval: time.Hour,
		FS:                 p.FS,
		Transport:          c.Fabric.Host(p.Host),
	})
	if err != nil {
		return err
	}
	if err := node.Start(":0"); err != nil {
		return err
	}
	p.Store, p.Node, p.Addr = st, node, node.Addr().String()
	return nil
}

// Restart simulates the machine coming back after a power cut: the
// dead node is discarded, the filesystem reboots, the store recovers
// its journals and the ledger its newest checkpoint, and a fresh node
// listens on the same fabric host.
func (p *DurablePeer) Restart(c *Cluster) error {
	c.t.Helper()
	p.Node.Close()
	p.Store.Close()
	p.FS.Reboot()
	return p.boot(c)
}

// Client returns a client dialing from the given fabric host.
// opts.Transport is overwritten with that host.
func (c *Cluster) Client(host string, id *auth.Identity, opts client.Options) *client.Client {
	c.t.Helper()
	opts.Transport = c.Fabric.Host(host)
	cl, err := client.NewWith(id, nil, opts)
	if err != nil {
		c.t.Fatal(err)
	}
	return cl
}

// UserClient returns a client for the owner identity on HostUser.
func (c *Cluster) UserClient(opts client.Options) *client.Client {
	return c.Client(HostUser, c.Owner, opts)
}

// Generation describes one disseminated rlnc generation.
type Generation struct {
	FileID  uint64
	Params  rlnc.Params
	Secret  []byte
	Data    []byte
	Digests map[uint64]rlnc.Digest // every message, across all peers
	Holders []string               // the peer addresses it was disseminated to
}

// SeedGeneration encodes dataLen bytes into one generation of k pieces
// and disseminates perPeer encoded messages to every storage peer over
// the fabric. The owner client uploads from HostUser; a scenario reads
// the holders from the generation, so no discovery dial joins the
// fabric's event log.
func (c *Cluster) SeedGeneration(ctx context.Context, fileID uint64, k, pieceLen, dataLen, perPeer int) *Generation {
	c.t.Helper()
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), k, pieceLen, dataLen)
	if err != nil {
		c.t.Fatal(err)
	}
	data := bytes.Repeat([]byte("asymmetric channel "), dataLen/19+1)[:dataLen]
	enc, err := rlnc.NewEncoder(params, fileID, Secret(), data)
	if err != nil {
		c.t.Fatal(err)
	}
	gen := &Generation{
		FileID:  fileID,
		Params:  params,
		Secret:  Secret(),
		Data:    data,
		Digests: make(map[uint64]rlnc.Digest),
	}
	owner := c.UserClient(client.Options{})
	for i, p := range c.Peers {
		batch, err := enc.BatchForPeer(i, perPeer)
		if err != nil {
			c.t.Fatal(err)
		}
		if err := owner.Disseminate(ctx, p.Addr, batch); err != nil {
			c.t.Fatalf("disseminate to %s: %v", p.Host, err)
		}
		p.Digests = make(map[uint64]rlnc.Digest, len(batch))
		sums := make([]rlnc.Digest, len(batch))
		rlnc.DigestBatch(sums, batch)
		for j, msg := range batch {
			p.Digests[msg.MessageID] = sums[j]
			gen.Digests[msg.MessageID] = sums[j]
		}
		gen.Holders = append(gen.Holders, p.Addr)
	}
	return gen
}
