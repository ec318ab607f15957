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
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// TestPeerAnswersDHTOnItsOwnPort drives the one-listener contract: a
// peer with Config.DHT answers PING, FIND_NODE, STORE and FIND_VALUE on
// its own address, and a HELLO on that same port still handshakes and
// serves a fetch.
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
	key := dht.KeyFromFileID(77)
	if err := user.Announce(ctx, key, "holder:7070", time.Minute); err != nil { // STORE
		t.Fatalf("STORE: %v", err)
	}
	if st, err := hosted.LookupStats(ctx, key); err != nil || st.Hops != 0 || len(st.Values) != 1 {
		t.Fatalf("hosted node holds %v (%d hops, %v), want the stored value locally", st.Values, st.Hops, err)
	}
	if got, err := user.Lookup(ctx, key); err != nil || len(got) != 1 || got[0] != "holder:7070" { // FIND_VALUE
		t.Fatalf("FIND_VALUE = %v, %v; want [holder:7070]", got, err)
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
	node := startPeer(t, peer.Config{Identity: identity(t, 42), Store: st})
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
	if n := node.StoredBytes(); n != 0 || st.TotalMessages() != 0 {
		t.Fatalf("peer stored %d bytes, %d messages from a DHT frame", n, st.TotalMessages())
	}
}

// TestPeerReannouncesStoredFiles: a record the owner announces once
// outlives its TTL while a DHT-hosting peer holds the file, because the
// peer re-announces each stored file-id under its own address every
// half TTL; once the peer closes, the record lapses.
func TestPeerReannouncesStoredFiles(t *testing.T) {
	const ttl = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	bootstrap := startPeer(t, peer.Config{Identity: identity(t, 43), Store: store.NewMemory(), DHT: &dht.Config{MaxTTL: ttl}})
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
	if err := holder.DHT().Join(ctx, bootstrap.Addr().String()); err != nil {
		t.Fatal(err)
	}
	clientNode := func() *dht.Node {
		n, err := dht.New(dht.Config{MaxTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if err := n.Join(ctx, bootstrap.Addr().String()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := dht.KeyFromFileID(77)
	if err := clientNode().Announce(ctx, key, holderAddr, 0); err != nil {
		t.Fatal(err)
	}

	time.Sleep(4 * ttl)
	user := clientNode()
	if got, err := user.Lookup(ctx, key); err != nil || len(got) != 1 || got[0] != holderAddr {
		t.Fatalf("lookup 4 TTLs after the one announce = %v, %v; want [%s]", got, err, holderAddr)
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
}
