package harness

// One read path (ISSUE 16): every fetch flavour — FetchFile, StreamFile,
// FetchFileVia, a placed handle — runs on one session set and one chunk
// ladder, so each must dial every distinct peer exactly once on a
// healthy fabric, outrun a stalled peer, and survive a mid-stream cut
// by redialing, with no per-connection fallback to hide behind.

import (
	"bytes"
	"context"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/transport"
)

// countingTransport counts the dials a client makes: to addr only,
// when that is set.
type countingTransport struct {
	transport.Transport
	addr  string
	dials atomic.Int64
}

func (ct *countingTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	if ct.addr == "" || ct.addr == addr {
		ct.dials.Add(1)
	}
	return ct.Transport.DialContext(ctx, addr)
}

// fetchFlavours is the table: four ways to ask for the same file. The
// placed handle names two of the three peers per chunk, chunk i starting
// at peer i, so the placed set still spans every peer.
var fetchFlavours = []struct {
	name  string
	fetch func(ctx context.Context, c *Cluster, sys *core.System, h *core.Handle, secret []byte) ([]byte, error)
}{
	{"FetchFile", func(ctx context.Context, c *Cluster, sys *core.System, h *core.Handle, secret []byte) ([]byte, error) {
		data, _, err := sys.Client().FetchFile(ctx, h.Peers, &h.Manifest, secret)
		return data, err
	}},
	{"StreamFile", func(ctx context.Context, c *Cluster, sys *core.System, h *core.Handle, secret []byte) ([]byte, error) {
		s, err := sys.Client().StreamFile(ctx, h.Peers, &h.Manifest, secret, client.StreamOptions{})
		if err != nil {
			return nil, err
		}
		r := s.Reader()
		defer r.Close()
		return io.ReadAll(r)
	}},
	{"FetchFileVia", func(ctx context.Context, c *Cluster, sys *core.System, h *core.Handle, secret []byte) ([]byte, error) {
		// The holders of a startDHTCluster announced themselves on their
		// first PUT. A client-only node on HostUser resolves them, so the
		// lookups stay out of the client's dial count.
		node, err := dht.New(dht.Config{Transport: c.Fabric.Host(HostUser)})
		if err != nil {
			return nil, err
		}
		defer node.Close()
		if err := node.Join(ctx, c.Peers[0].Addr); err != nil {
			return nil, err
		}
		if err := AwaitHolders(ctx, node, h); err != nil {
			return nil, err
		}
		data, _, err := sys.FetchFileVia(ctx, node, &h.Manifest, secret)
		return data, err
	}},
	{"placed", func(ctx context.Context, c *Cluster, sys *core.System, h *core.Handle, secret []byte) ([]byte, error) {
		placed := *h
		for i := range h.Manifest.Chunks {
			n := len(h.Peers)
			placed.ChunkPeers = append(placed.ChunkPeers, []string{h.Peers[i%n], h.Peers[(i+1)%n]})
		}
		data, _, err := sys.FetchFile(ctx, &placed, secret)
		return data, err
	}},
}

// startDHTCluster is Start with n peers that each answer DHT RPCs on
// their own address, joined through the first, so every holder
// announces what it is given and FetchFileVia can resolve it.
func startDHTCluster(t *testing.T, seed int64, n int) *Cluster {
	t.Helper()
	c := Start(t, seed, 0)
	ctx := testCtx(t)
	for i := 0; i < n; i++ {
		p := c.startPeer("peer"+strconv.Itoa(i), byte(1+i), peer.Config{DHT: &dht.Config{}})
		if i > 0 {
			if err := p.Node.Join(ctx, c.Peers[0].Addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// flavourSystem builds the core.System a flavour fetches with: its own
// fabric host, a counting transport, an instrumented client.
func flavourSystem(t *testing.T, c *Cluster, host string, plan chunk.Plan,
	opts client.Options) (*core.System, *countingTransport, *metrics.Registry) {
	t.Helper()
	ct := &countingTransport{Transport: c.Fabric.Host(host)}
	opts.Transport = ct
	sys, err := core.NewSystem(c.Owner, nil, core.WithPlan(plan), core.WithClientOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sys.Client().Instrument(reg)
	return sys, ct, reg
}

// TestEveryFetchFlavourDialsEachPeerOnce: on a healthy fabric a fetch
// costs one dial + handshake per distinct peer, however many chunks the
// manifest has and whichever entry point asked.
func TestEveryFetchFlavourDialsEachPeerOnce(t *testing.T) {
	seed := Seed(t, 1601)
	ctx := testCtx(t)
	c := startDHTCluster(t, seed, 3)
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 1024, ChunkSize: 16 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, 128<<10) // 8 chunks

	for _, fl := range fetchFlavours {
		t.Run(fl.name, func(t *testing.T) {
			sys, ct, _ := flavourSystem(t, c, "dials-"+fl.name, plan, client.Options{})
			got, err := fl.fetch(ctx, c, sys, h, secret)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("decoded bytes differ from original")
			}
			if n := ct.dials.Load(); n != int64(len(c.Peers)) {
				t.Fatalf("%d dials for %d chunks on %d peers, want one per distinct peer",
					n, len(h.Manifest.Chunks), len(c.Peers))
			}
		})
	}
}

// TestEveryFetchFlavourHedges: every flavour hedges each chunk across
// all of its peers at once. peer0's uplink wedges to a trickle after one
// burst; the other rungs finish every chunk within the stalled-link
// budget, and peer0's breaker stays closed: a slow peer is not a failed
// one.
func TestEveryFetchFlavourHedges(t *testing.T) {
	seed := Seed(t, 1602)
	ctx := testCtx(t)
	c := startDHTCluster(t, seed, 3)
	// 64 KiB chunks of 4 KiB pieces: each chunk far outsizes the
	// stalled link's burst, so the wedge always bites mid-chunk.
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 4096, ChunkSize: 64 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, 192<<10)

	for _, fl := range fetchFlavours {
		t.Run(fl.name, func(t *testing.T) {
			host := "hedge-" + fl.name
			c.Fabric.SetLink(c.Peers[0].Host, host, netsim.LinkPolicy{BytesPerSec: 50, Burst: 16 << 10})
			sys, _, _ := flavourSystem(t, c, host, plan, client.Options{})
			start := time.Now()
			got, err := fl.fetch(ctx, c, sys, h, secret)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("decoded bytes differ from original")
			}
			if d := time.Since(start); d > stalledBudget {
				t.Fatalf("fetch took %v behind a 50 B/s peer, want <= %v", d, stalledBudget)
			}
			if s := sys.Client().PeerHealth(c.Peers[0].Addr); s.Breaker != "closed" || s.Failures != 0 {
				t.Fatalf("stalled peer's health %+v, want a closed breaker and no failures", s)
			}
		})
	}
}

// TestManifestFetchRedialsAfterMidStreamCut is
// TestFetchRetriesAfterMidStreamCut's scenario through the manifest
// entry points: both peers are required for every chunk (k=8, 4
// messages each) and peer1's first session is severed mid-stream, with
// several chunk streams on it. Only a redial can finish, and without
// one the fetch must fail as incomplete.
func TestManifestFetchRedialsAfterMidStreamCut(t *testing.T) {
	seed := Seed(t, 1603)
	ctx := testCtx(t)
	c := Start(t, seed, 2)
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 512, ChunkSize: 4096}
	data := bytes.Repeat([]byte("cut, then redial "), 1000)[:3*4096]
	share, err := chunk.BuildShare("cut.bin", data, plan, 0xC07, Secret())
	if err != nil {
		t.Fatal(err)
	}
	seeder := c.Client("seeder", c.Owner, client.Options{})
	var addrs []string
	for i, p := range c.Peers {
		batches, err := share.BatchForPeer(i, 4)
		if err != nil {
			t.Fatal(err)
		}
		var flat []*rlnc.Message
		for _, b := range batches {
			flat = append(flat, b...)
		}
		if err := seeder.Disseminate(ctx, p.Addr, flat); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, p.Addr)
	}
	h := &core.Handle{Manifest: share.Manifest, Peers: addrs}

	for _, fl := range fetchFlavours[:2] { // FetchFile, StreamFile
		t.Run(fl.name, func(t *testing.T) {
			// The host's first connection from peer1 is cut; its second,
			// the redial, is allowed through.
			host := "cut-" + fl.name
			c.Fabric.SetLink("peer1", host, netsim.LinkPolicy{CutAfterBytes: 1200, CutConns: 1})
			sys, ct, _ := flavourSystem(t, c, host, plan, client.Options{RetryBackoff: 20 * time.Millisecond})
			got, err := fl.fetch(ctx, c, sys, h, Secret())
			if err != nil {
				t.Fatalf("fetch did not fail over to a redial: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("decoded bytes differ from original")
			}
			if n := ct.dials.Load(); n != 3 {
				t.Fatalf("%d dials, want 3: one per peer plus the redial", n)
			}

			host = "cut-noretry-" + fl.name
			c.Fabric.SetLink("peer1", host, netsim.LinkPolicy{CutAfterBytes: 1200, CutConns: 1})
			sys, _, _ = flavourSystem(t, c, host, plan, client.Options{PeerRetries: -1})
			if _, err := fl.fetch(ctx, c, sys, h, Secret()); err == nil {
				t.Fatal("retry-less fetch after the cut succeeded")
			}
		})
	}
}
