package peer_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/dht"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// TestPeerAnswersDHTOnItsOwnPort drives the one-listener contract: a
// peer with Config.DHT answers PING, FIND_NODE, STORE and FIND_VALUE on
// its own address, and a HELLO on that same port still handshakes and
// serves a fetch. The STORE comes from a second DHT-hosting peer
// announcing itself, the one record a STORE may carry.
func TestPeerAnswersDHTOnItsOwnPort(t *testing.T) {
	peerID, userID := identity(t, 40), identity(t, 41)
	node := startPeer(t, peer.Config{Identity: peerID, Store: store.NewMemory(), DHT: &dht.Config{}})
	addr := node.Addr().String()
	hosted := node.DHT()
	if hosted == nil || hosted.Addr() != addr || hosted.ID() != dht.NodeIDFromAddr(addr) {
		t.Fatalf("hosted DHT node %v does not advertise the peer's address %s", hosted, addr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	user, err := dht.New(dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	if err := user.Ping(ctx, addr); err != nil {
		t.Fatalf("PING: %v", err)
	}
	if err := user.Join(ctx, addr); err != nil { // PING, then FIND_NODE
		t.Fatalf("FIND_NODE: %v", err)
	}
	holder := startPeer(t, peer.Config{Identity: identity(t, 39), Store: store.NewMemory(), DHT: &dht.Config{}})
	holderAddr := holder.Addr().String()
	if err := holder.Join(ctx, addr); err != nil {
		t.Fatal(err)
	}
	key := dht.KeyFromFileID(77)
	if err := holder.DHT().Announce(ctx, key); err != nil { // STORE
		t.Fatalf("STORE: %v", err)
	}
	if st, err := hosted.LookupStats(ctx, key); err != nil || st.Hops != 0 || len(st.Values) != 1 || st.Values[0] != holderAddr {
		t.Fatalf("hosted node holds %v (%d hops, %v), want [%s] locally", st.Values, st.Hops, err, holderAddr)
	}
	if got, err := user.Lookup(ctx, key); err != nil || len(got) != 1 || got[0] != holderAddr { // FIND_VALUE
		t.Fatalf("FIND_VALUE = %v, %v; want [%s]", got, err, holderAddr)
	}

	// The peer protocol on the same port.
	params := smallParams(t, 8, 64, 500)
	data := make([]byte, 500)
	rand.New(rand.NewSource(40)).Read(data)
	enc, err := rlnc.NewEncoder(params, 42, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := enc.BatchForPeer(0, params.K)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(userID, auth.NewTrustSet(peerID.Public()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Disseminate(ctx, addr, batch); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Fetch(ctx, client.FetchRequest{Peers: []string{addr}, Params: params, FileID: 42, Secret: testSecret()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch over the DHT-hosting port returned different bytes")
	}
}

// TestPeerWithoutDHTAnswersNoDHTFrame: with Config.DHT nil, a
// connection opening with a DHT request gets no frame back and the
// peer stores nothing.
func TestPeerWithoutDHTAnswersNoDHTFrame(t *testing.T) {
	st := store.NewMemory()
	reg := metrics.NewRegistry()
	node := startPeer(t, peer.Config{Identity: identity(t, 42), Store: st, Metrics: reg})
	if node.DHT() != nil {
		t.Fatal("a peer without Config.DHT hosts a DHT node")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	user, err := dht.New(dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	if err := user.Ping(ctx, node.Addr().String()); err == nil {
		t.Fatal("PING answered by a peer without a DHT node")
	}

	// A STORE frame (type 100) written by hand: the connection closes
	// without a reply.
	conn, err := net.Dial("tcp", node.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	key := dht.KeyFromFileID(9).String()
	body := `{"fromId":"` + key + `","fromAddr":"x:1","key":"` + key + `","value":"x:1"}`
	if err := wire.NewFrameWriter(conn).WriteFrame(wire.Type(100), []byte(body)); err != nil {
		t.Fatal(err)
	}
	if typ, b, err := wire.NewFrameReader(conn).Next(); err == nil {
		b.Release()
		t.Fatalf("peer answered a DHT STORE with frame type %d", typ)
	}
	if n := reg.Counter(peer.MetricStoredBytes, "").Value(); n != 0 || st.TotalMessages() != 0 {
		t.Fatalf("peer stored %d bytes, %d messages from a DHT frame", n, st.TotalMessages())
	}
}

// TestPeerReannouncesStoredFiles: a DHT-hosting peer is the one writer
// of its holder records. It announces a file-id under its own address
// as soon as the first PUT for it lands, long before its re-announce
// tick; and it re-announces every stored file-id each half TTL, so the
// record outlives its TTL while the peer holds the file and lapses once
// the peer closes. No client announces anything.
func TestPeerReannouncesStoredFiles(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	clientNode := func(t *testing.T, bootstrap string) *dht.Node {
		n, err := dht.New(dht.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if err := n.Join(ctx, bootstrap); err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("first PUT", func(t *testing.T) {
		// An hour's TTL: the re-announce ticker cannot fire in the test.
		cfg := func() *dht.Config { return &dht.Config{MaxTTL: time.Hour} }
		bootstrap := startPeer(t, peer.Config{Identity: identity(t, 45), Store: store.NewMemory(), DHT: cfg()})
		holderID := identity(t, 46)
		holder := startPeer(t, peer.Config{Identity: holderID, Store: store.NewMemory(), DHT: cfg()})
		holderAddr := holder.Addr().String()
		if err := holder.Join(ctx, bootstrap.Addr().String()); err != nil {
			t.Fatal(err)
		}
		user := clientNode(t, bootstrap.Addr().String())
		key := dht.KeyFromFileID(78)
		if _, err := user.Lookup(ctx, key); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("lookup before any PUT = %v, want ErrNotFound", err)
		}

		c, err := client.New(identity(t, 47), auth.NewTrustSet(holderID.Public()))
		if err != nil {
			t.Fatal(err)
		}
		awaitHolder := func(fileID uint64, deadline time.Time) {
			t.Helper()
			for {
				got, err := user.Lookup(ctx, dht.KeyFromFileID(fileID))
				if err == nil && len(got) == 1 && got[0] == holderAddr {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("file %d: lookup after its first PUT = %v, %v; want [%s]", fileID, got, err, holderAddr)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		if err := c.Disseminate(ctx, holderAddr, []*rlnc.Message{{FileID: 78, MessageID: 1, Payload: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
		awaitHolder(78, time.Now().Add(2*time.Second))

		// A PATCH that reaches a file-id before any PUT stores nothing,
		// and so announces nothing; the first PUT that is stored does.
		u, err := c.OpenUpload(ctx, holderAddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Patch([]*rlnc.Message{{FileID: 79, MessageID: 1, Payload: []byte{1}}}); err == nil {
			t.Fatal("PATCH of a message never stored succeeded")
		}
		u.Close()
		if err := c.Disseminate(ctx, holderAddr, []*rlnc.Message{{FileID: 79, MessageID: 1, Payload: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
		awaitHolder(79, time.Now().Add(2*time.Second))

		// A share lands one chunk after another, each a new file-id, far
		// faster than one announce (a lookup plus STOREs) runs: every id
		// still resolves long before the tick, none left waiting for it.
		var burst []*rlnc.Message
		for id := uint64(1000); id < 1200; id++ {
			burst = append(burst, &rlnc.Message{FileID: id, MessageID: 1, Payload: []byte{1}},
				&rlnc.Message{FileID: id, MessageID: 2, Payload: []byte{2}})
		}
		if err := c.Disseminate(ctx, holderAddr, burst); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for id := uint64(1000); id < 1200; id++ {
			awaitHolder(id, deadline)
		}
	})

	t.Run("re-announce", func(t *testing.T) {
		const ttl = 300 * time.Millisecond
		bootstrap := startPeer(t, peer.Config{Identity: identity(t, 43), Store: store.NewMemory(), DHT: &dht.Config{MaxTTL: ttl}})
		// The file is in the store before the peer starts, as after a
		// restart: no PUT announces it. Join announces it once; only
		// the tick keeps it resolving past its TTL.
		st := store.NewMemory()
		if err := st.Put(&rlnc.Message{FileID: 77, MessageID: 1, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		holder, err := peer.New(peer.Config{Identity: identity(t, 44), Store: st, DHT: &dht.Config{MaxTTL: ttl}})
		if err != nil {
			t.Fatal(err)
		}
		if err := holder.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer holder.Close()
		holderAddr := holder.Addr().String()
		if err := holder.Join(ctx, bootstrap.Addr().String()); err != nil {
			t.Fatal(err)
		}
		key := dht.KeyFromFileID(77)

		time.Sleep(4 * ttl)
		user := clientNode(t, bootstrap.Addr().String())
		if got, err := user.Lookup(ctx, key); err != nil || len(got) != 1 || got[0] != holderAddr {
			t.Fatalf("lookup after 4 TTLs = %v, %v; want [%s]", got, err, holderAddr)
		}

		holder.Close()
		gone := time.Now().Add(3 * ttl)
		for {
			got, err := user.Lookup(ctx, key)
			if errors.Is(err, dht.ErrNotFound) || (err == nil && !slices.Contains(got, holderAddr)) {
				return
			}
			if time.Now().After(gone) {
				t.Fatalf("lookup 3 TTLs after the holder closed = %v, %v; want it gone", got, err)
			}
			time.Sleep(ttl / 10)
		}
	})
}

// TestRestartedHolderAnnouncesWhatItHolds: a holder restarted on its
// store announces every file-id the store holds as soon as its DHT node
// reaches anyone: on Join, or at Start for a bootstrap that joins
// nobody. With an hour's TTL the re-announce tick cannot fire in the
// test, so only that announce can make the key resolve to the new
// address.
func TestRestartedHolderAnnouncesWhatItHolds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	key := dht.KeyFromFileID(80)
	holding := func(t *testing.T) peer.Config {
		st := store.NewMemory()
		if err := st.Put(&rlnc.Message{FileID: 80, MessageID: 1, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		return peer.Config{Identity: identity(t, 49), Store: st, DHT: &dht.Config{MaxTTL: time.Hour}}
	}
	userVia := func(t *testing.T, bootstrap string) *dht.Node {
		user, err := dht.New(dht.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { user.Close() })
		if err := user.Join(ctx, bootstrap); err != nil {
			t.Fatal(err)
		}
		return user
	}
	resolves := func(t *testing.T, user *dht.Node, addr string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			got, err := user.Lookup(ctx, key)
			if err == nil && slices.Contains(got, addr) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("lookup 2 s after the restart = %v, %v; want %s among them", got, err, addr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	t.Run("joiner", func(t *testing.T) {
		bootstrap := startPeer(t, peer.Config{Identity: identity(t, 48), Store: store.NewMemory(), DHT: &dht.Config{MaxTTL: time.Hour}})
		cfg := holding(t)
		holder := startPeer(t, cfg)
		if err := holder.Join(ctx, bootstrap.Addr().String()); err != nil {
			t.Fatal(err)
		}
		// The first PUT of the file announced it network-wide.
		if err := holder.DHT().Announce(ctx, key); err != nil {
			t.Fatal(err)
		}
		user := userVia(t, bootstrap.Addr().String())
		resolves(t, user, holder.Addr().String())

		// The bootstrap keeps the old address for its hour and answers
		// the user's lookup with it, so the new address resolves only
		// if the restarted holder's Join put it there too.
		holder.Close()
		holder = startPeer(t, cfg)
		if err := holder.Join(ctx, bootstrap.Addr().String()); err != nil {
			t.Fatal(err)
		}
		resolves(t, user, holder.Addr().String())
	})

	t.Run("bootstrap", func(t *testing.T) {
		cfg := holding(t)
		for restart := 0; restart < 2; restart++ {
			holder := startPeer(t, cfg)
			resolves(t, userVia(t, holder.Addr().String()), holder.Addr().String())
			holder.Close()
		}
	})
}
