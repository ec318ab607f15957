package harness

// Swarm extends the harness to DHT scale: every storage peer answers
// DHT RPCs on its own port, so hundreds or thousands of peers form one
// routing overlay that announces and resolves where ring-placed chunks
// live. Fetches and audits resolve their holders through it.

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/fairshare"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/store"
)

// SwarmConfig sizes and tunes a swarm.
type SwarmConfig struct {
	// N is the number of storage peers (hosts "s0".."sN-1").
	N int

	// TableCap bounds every DHT routing table (zero = package default).
	TableCap int

	// RPCTimeout caps one DHT RPC; zero means 2s (tight for netsim).
	RPCTimeout time.Duration

	// Policy, when set, becomes the fabric's default link policy —
	// scaled-down links for large swarms.
	Policy *netsim.LinkPolicy
}

// SwarmPeer is one swarm member: a serving node over its store, and
// the DHT node it answers for on the same address.
type SwarmPeer struct {
	Host  string
	ID    *auth.Identity
	Node  *peer.Node
	Store *store.Memory
	DHT   *dht.Node
	Addr  string // the peer's one listen address
}

// Swarm is a booted DHT-scale deployment.
type Swarm struct {
	Fabric *netsim.Fabric

	Owner     *auth.Identity
	Home      *peer.Node
	HomeStore *store.Memory
	HomeDHT   *dht.Node
	HomeAddr  string

	Peers []*SwarmPeer

	cfg SwarmConfig
	t   *testing.T
}

// indexIdentity derives a deterministic identity from a peer index —
// testIdentity's single byte only reaches 255 peers.
func indexIdentity(t *testing.T, i int) *auth.Identity {
	t.Helper()
	seed := make([]byte, 32)
	binary.BigEndian.PutUint32(seed, uint32(i)+1)
	seed[31] = 0x5a
	id, err := auth.IdentityFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// dhtConfig is the DHT configuration every swarm node shares.
func (cfg SwarmConfig) dhtConfig() *dht.Config {
	rpcTimeout := cfg.RPCTimeout
	if rpcTimeout <= 0 {
		rpcTimeout = 2 * time.Second
	}
	return &dht.Config{TableCap: cfg.TableCap, RPCTimeout: rpcTimeout}
}

// StartSwarm boots the home (the DHT bootstrap) and cfg.N
// storage peers, each answering DHT RPCs on its own port, then joins
// every peer's DHT node through the home. All nodes are cleaned up
// with the test.
func StartSwarm(t *testing.T, seed int64, cfg SwarmConfig) *Swarm {
	t.Helper()
	f := netsim.NewFabric(seed)
	if cfg.Policy != nil {
		f.SetDefaultPolicy(*cfg.Policy)
	}
	s := &Swarm{Fabric: f, Owner: testIdentity(t, 199), cfg: cfg, t: t}

	s.HomeStore = store.NewMemory()
	home, err := peer.New(peer.Config{
		Identity:  testIdentity(t, 200),
		Store:     s.HomeStore,
		Owner:     s.Owner.Public(),
		Ledger:    fairshare.NewLedger(0),
		Transport: f.Host(HostHome),
		DHT:       cfg.dhtConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Start(":0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { home.Close() })
	s.Home = home
	s.HomeAddr = home.Addr().String()
	s.HomeDHT = home.DHT()

	s.Peers = make([]*SwarmPeer, cfg.N)
	for i := 0; i < cfg.N; i++ {
		host := "s" + strconv.Itoa(i)
		st := store.NewMemory()
		id := indexIdentity(t, i)
		node, err := peer.New(peer.Config{Identity: id, Store: st, Transport: f.Host(host), DHT: cfg.dhtConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(":0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		s.Peers[i] = &SwarmPeer{Host: host, ID: id, Node: node, Store: st, DHT: node.DHT(), Addr: node.Addr().String()}
	}

	s.joinAll()
	return s
}

// joinWorkers bounds concurrent DHT joins and refreshes at boot.
const joinWorkers = 64

// joinAll joins every peer's DHT node through the home bootstrap with a
// bounded worker pool.
func (s *Swarm) joinAll() {
	s.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sem := make(chan struct{}, joinWorkers)
	var wg sync.WaitGroup
	errs := make(chan error, len(s.Peers))
	for _, p := range s.Peers {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *SwarmPeer) {
			defer wg.Done()
			defer func() { <-sem }()
			// The bootstrap absorbs N concurrent joins at boot; a few
			// retries ride out the initial stampede on slow machines.
			var lastErr error
			for attempt := 0; attempt < 4; attempt++ {
				if lastErr = p.DHT.Join(ctx, s.HomeDHT.Addr()); lastErr == nil {
					return
				}
				select {
				case <-ctx.Done():
					errs <- lastErr
					return
				case <-time.After(time.Duration(100<<attempt) * time.Millisecond):
				}
			}
			errs <- lastErr
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		s.t.Fatalf("dht join: %v", err)
	}

	// A bucket-refresh wave after the join storm: join-time tables only
	// hold whatever each node happened to observe on its own way in, so
	// late joiners are known by few others and lookups routed through
	// them take extra hops. Refresh lookups spread every node through
	// the swarm's tables — one round of the refresh every peer-hosted
	// node runs each dht.DefaultTTL, run at once instead of waiting.
	for _, p := range s.Peers {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *SwarmPeer) {
			defer wg.Done()
			defer func() { <-sem }()
			p.DHT.Refresh(ctx)
		}(p)
	}
	wg.Wait()
}

// UserDHT boots a client-only DHT node dialing from HostUser, joined
// through the given bootstrap address. No peer serves it, so it sends
// no address and enters no one's table.
func (s *Swarm) UserDHT(ctx context.Context, bootstrap string) *dht.Node {
	s.t.Helper()
	cfg := s.cfg.dhtConfig()
	cfg.Transport = s.Fabric.Host(HostUser)
	n, err := dht.New(*cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { n.Close() })
	if err := n.Join(ctx, bootstrap); err != nil {
		s.t.Fatalf("user dht join: %v", err)
	}
	return n
}

// Client returns a client dialing from the given fabric host.
// opts.Transport is overwritten with that host.
func (s *Swarm) Client(host string, id *auth.Identity, opts client.Options) *client.Client {
	s.t.Helper()
	opts.Transport = s.Fabric.Host(host)
	cl, err := client.NewWith(id, nil, opts)
	if err != nil {
		s.t.Fatal(err)
	}
	return cl
}

// AwaitHolders polls node until every chunk of h resolves to exactly
// its placed holders, for at most 10 s: far below the 5 min half-TTL
// re-announce, so only the holders' first-PUT announces can meet it.
func AwaitHolders(ctx context.Context, node *dht.Node, h *core.Handle) error {
	deadline := time.Now().Add(10 * time.Second)
	for i, info := range h.Manifest.Chunks {
		want := slices.Clone(h.PeersForChunk(i))
		sort.Strings(want)
		for {
			got, err := node.Lookup(ctx, dht.KeyFromFileID(info.FileID))
			if err == nil && slices.Equal(got, want) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("chunk %d resolves to %v (%v) after 10 s, want its holders %v", i, got, err, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}
