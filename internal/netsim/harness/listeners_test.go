package harness

// Every listening port of a storage peer, dialed by a stranger who
// never sends a HELLO: no stored byte leaves, and nothing the stranger
// offers is stored or announced. A peer's upload is split among
// requesters by Eq. (2) on the authenticated peer protocol only; a
// second door would serve outside that split, so each peer has exactly
// one port, where it also answers DHT RPCs. The probes speak the
// rumor-gossip exchange (OFFER / WANT / DATA / PULL / DONE on frame
// types 112–116, JSON id lists) that once ran on its own listener
// beside the peer port, plus the peer protocol's own PUT and DATA
// frames, so neither kind of door can come back unnoticed.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/dht"
	"asymshare/internal/netsim"
	"asymshare/internal/ring"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// The rumor-gossip exchange's frame types.
const (
	gossipOffer wire.Type = 112 + iota
	gossipWant
	gossipData
	gossipPull
)

type probeFrame struct {
	t       wire.Type
	payload []byte
}

func jsonFrame(t *testing.T, typ wire.Type, v any) probeFrame {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return probeFrame{typ, b}
}

// probe dials addr from host, writes frames, and returns every payload
// byte the listener sends back within a short window. A gossip WANT
// that offers ids back is answered with a PULL for all of them.
func probe(t *testing.T, ctx context.Context, host *netsim.Host, addr string, frames ...probeFrame) []byte {
	t.Helper()
	conn, err := host.DialContext(ctx, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
	fw, fr := wire.NewFrameWriter(conn), wire.NewFrameReader(conn)
	for _, f := range frames {
		if err := fw.WriteFrame(f.t, f.payload); err != nil {
			return nil // the listener hung up before reading it all
		}
	}
	var replies []byte
	for {
		typ, b, err := fr.Next()
		if err != nil {
			return replies
		}
		replies = append(replies, b.Bytes()...)
		if typ == gossipWant {
			var want struct {
				Offer []uint64 `json:"offer"`
			}
			if json.Unmarshal(b.Bytes(), &want) == nil && len(want.Offer) > 0 {
				f := jsonFrame(t, gossipPull, map[string][]uint64{"want": want.Offer})
				_ = fw.WriteFrame(f.t, f.payload)
			}
		}
		b.Release()
	}
}

func TestNoListenerServesOrStoresWithoutHello(t *testing.T) {
	seed := Seed(t, 91)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s := StartSwarm(t, seed, SwarmConfig{N: 4})
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 600)
	rng.Read(data)

	sys, err := core.NewSystem(s.Owner, nil, core.WithPlan(swarmPlan()),
		core.WithClientOptions(client.Options{Transport: s.Fabric.Host(HostHome)}))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(s.Peers))
	for i, p := range s.Peers {
		addrs[i] = p.Addr
	}
	r, err := ring.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ShareFilePlaced(ctx, "probe.bin", data, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Handle.Manifest.Chunks[0]
	holder := s.Peers[slices.Index(addrs, res.Handle.PeersForChunk(0)[0])]
	stored, err := holder.Store.Messages(info.FileID)
	if err != nil || len(stored) == 0 {
		t.Fatalf("holder stores %d messages of the placed chunk: %v", len(stored), err)
	}
	payloadLen := len(stored[0].Payload)

	freshID := rng.Uint64()
	junk := &rlnc.Message{FileID: freshID, MessageID: 1, Payload: make([]byte, payloadLen)}
	rng.Read(junk.Payload)
	junkBytes, err := junk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range s.Peers {
		if got := s.Fabric.Host(p.Host).Listeners(); len(got) != 1 || got[0] != p.Addr {
			t.Fatalf("host %s listens on %v, want only the peer's address %s", p.Host, got, p.Addr)
		}
	}
	if got := s.Fabric.Host(HostHome).Listeners(); len(got) != 1 || got[0] != s.HomeAddr {
		t.Fatalf("home listens on %v, want only the peer's address %s", got, s.HomeAddr)
	}
	listeners := s.Fabric.Host(holder.Host).Listeners()
	scan := s.Fabric.Host("scan")
	for _, addr := range listeners {
		// Offer one held message id, and pull whatever is offered back.
		replies := probe(t, ctx, scan, addr, jsonFrame(t, gossipOffer, map[string]any{
			"fileId": info.FileID, "k": info.K, "payloadLen": payloadLen, "ids": []uint64{stored[0].MessageID},
		}))
		// Push a junk message under a fresh file id: inside a rumor
		// exchange, and as the peer protocol's PUT and DATA frames.
		replies = append(replies, probe(t, ctx, scan, addr,
			jsonFrame(t, gossipOffer, map[string]any{"fileId": freshID, "k": 1, "payloadLen": payloadLen, "ids": []uint64{1}}),
			probeFrame{gossipData, junkBytes},
			jsonFrame(t, gossipPull, map[string]any{}))...)
		replies = append(replies, probe(t, ctx, scan, addr, probeFrame{wire.TypePut, junkBytes})...)
		replies = append(replies, probe(t, ctx, scan, addr, probeFrame{wire.TypeData, junkBytes})...)
		for _, m := range stored {
			if bytes.Contains(replies, m.Payload) {
				t.Errorf("%s served stored message %d of file %d to a dialer that sent no HELLO", addr, m.MessageID, info.FileID)
				break
			}
		}
	}
	if n := holder.Store.Count(freshID); n != 0 {
		t.Errorf("holder stored %d messages a dialer pushed without HELLO", n)
	}
	// A stored message would be announced in the background; give it
	// time to land before concluding none was.
	key := dht.KeyFromFileID(freshID)
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(100 * time.Millisecond) {
		lctx, lcancel := context.WithTimeout(ctx, time.Second)
		vals, err := s.HomeDHT.Lookup(lctx, key)
		lcancel()
		if err == nil && len(vals) > 0 {
			t.Fatalf("DHT holds provider records %v for a file id only a stranger offered", vals)
		}
	}
}
