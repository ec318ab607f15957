package peer_test

// End-to-end check that a full disseminate + fetch cycle against an
// instrumented node populates the peer_*, store_*, ratelimit_* and
// fairshare_* families, and that the client's own registry sees the
// download-side counters.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// counterValue returns the summed value of a family (all series), with
// ok=false when the family does not exist.
func counterValue(s metrics.Snapshot, name string) (float64, bool) {
	f, ok := s.Find(name)
	if !ok {
		return 0, false
	}
	var sum float64
	for _, series := range f.Series {
		if series.Hist != nil {
			sum += float64(series.Hist.Count)
		} else {
			sum += series.Value
		}
	}
	return sum, true
}

func TestNodeMetricsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	params := smallParams(t, 8, 64, 500)
	data := make([]byte, 500)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 42, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := enc.BatchForPeer(0, params.K)
	if err != nil {
		t.Fatal(err)
	}

	peerID := identity(t, 7)
	userID := identity(t, 8)
	peerReg := metrics.NewRegistry()
	node := startPeer(t, peer.Config{
		Identity:          peerID,
		Store:             store.NewMemory(),
		Trusted:           auth.NewTrustSet(userID.Public()),
		UploadBytesPerSec: 4 << 20, // shaped, so the allocator runs
		Metrics:           peerReg,
	})

	c, err := client.New(userID, auth.NewTrustSet(peerID.Public()))
	if err != nil {
		t.Fatal(err)
	}
	clientReg := metrics.NewRegistry()
	c.Instrument(clientReg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Disseminate(ctx, node.Addr().String(), batch); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Fetch(ctx, client.FetchRequest{
		Peers:  []string{node.Addr().String()},
		Params: params,
		FileID: 42,
		Secret: testSecret(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data mismatch")
	}

	// The peer accounts a batch as served after its flush returns, which
	// the fetch completing does not wait for.
	waitFor(t, func() bool {
		v, _ := counterValue(peerReg.Snapshot(), peer.MetricServedBytes)
		return v > 0
	}, "peer never accounted the bytes it served")
	snap := peerReg.Snapshot()
	for _, name := range []string{
		peer.MetricConnections,
		peer.MetricStoredBytes,
		peer.MetricServedBytes,
		store.MetricOpDuration,
	} {
		v, ok := counterValue(snap, name)
		if !ok {
			t.Errorf("family %s missing from peer registry", name)
		} else if v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	// The allocator granted the requester a rate at least once; the
	// gauge family must exist with the requester label.
	if f, ok := snap.Find(peer.MetricGrantedRate); !ok {
		t.Errorf("family %s missing", peer.MetricGrantedRate)
	} else if len(f.Series) == 0 || metrics.Get(f.Series[0].Labels, "requester") == "" {
		t.Errorf("%s has no labelled series: %+v", peer.MetricGrantedRate, f.Series)
	}

	csnap := clientReg.Snapshot()
	for _, name := range []string{
		client.MetricFetches,
		client.MetricInnovativeMessages,
		client.MetricReceivedBytes,
		client.MetricDecodedBytes,
	} {
		v, ok := counterValue(csnap, name)
		if !ok {
			t.Errorf("family %s missing from client registry", name)
		} else if v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
}

// TestRegistryCarriesOverloadStoreAndAuditCounts drives one refusal,
// one preemption, one deadline expiry, one PUT and one audit challenge
// through an instrumented node over real connections. The registry is
// the node's only record of them, and each family moves by exactly one
// event's worth.
func TestRegistryCarriesOverloadStoreAndAuditCounts(t *testing.T) {
	const fileID = 7
	st := store.NewMemory()
	for i := uint64(0); i < 64; i++ {
		if err := st.Put(&rlnc.Message{FileID: fileID, MessageID: i, Payload: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	// One stream slot at 1 KiB/s with a one-message burst: a stream
	// holds the slot for half a minute unless something ends it.
	node := startPeer(t, peer.Config{
		Identity:          identity(t, 230),
		Store:             st,
		UploadBytesPerSec: 1024,
		StreamBurst:       1,
		MaxStreams:        1,
		Metrics:           reg,
	})
	holder, weak, vip := identity(t, 231), identity(t, 232), identity(t, 233)
	node.Ledger().Credit(auth.Fingerprint(holder.Public()), 1000)
	node.Ledger().Credit(auth.Fingerprint(weak.Public()), 1)
	node.Ledger().Credit(auth.Fingerprint(vip.Public()), 1_000_000)

	get := func(fw *wire.FrameWriter, deadlineMillis uint32) {
		t.Helper()
		g := wire.Get{FileID: fileID, DeadlineMillis: deadlineMillis}
		if err := fw.WriteFrame(wire.TypeGetMux, g.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	// busy skips DATA frames up to the stream's BUSY and returns its code.
	busy := func(fr *wire.FrameReader) uint16 {
		t.Helper()
		for {
			typ, b, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if typ == wire.TypeData {
				b.Release()
				continue
			}
			var bz wire.Busy
			uerr := bz.Unmarshal(b.Bytes())
			b.Release()
			if typ != wire.TypeBusy || uerr != nil {
				t.Fatalf("got %s (%v), want BUSY", typ, uerr)
			}
			return bz.Code
		}
	}

	// The holder takes the one slot; its first DATA frame proves it.
	hr, hw := dialAuthed(t, node, holder)
	get(hw, 0)
	if _, err := hr.Expect(wire.TypeData); err != nil {
		t.Fatal(err)
	}
	// A weaker requester is refused.
	wr, ww := dialAuthed(t, node, weak)
	get(ww, 0)
	if code := busy(wr); code != wire.CodeBusy {
		t.Fatalf("weak requester: code %d, want CodeBusy", code)
	}
	// A stronger one preempts the holder, then outlives its own 200 ms
	// deadline: the second message waits half a second for tokens.
	vr, vw := dialAuthed(t, node, vip)
	get(vw, 200)
	if code := busy(hr); code != wire.CodeBusy {
		t.Fatalf("preempted holder: code %d, want CodeBusy", code)
	}
	if code := busy(vr); code != wire.CodeExpired {
		t.Fatalf("late stream: code %d, want CodeExpired", code)
	}

	put := rlnc.Message{FileID: fileID + 1, MessageID: 0, Payload: []byte("stored payload")}
	blob, err := put.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := ww.WriteFrame(wire.TypePut, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := wr.Expect(wire.TypePutOK); err != nil {
		t.Fatal(err)
	}
	ch := auditChallenge(fileID, 3, 999)
	if err := ww.WriteFrame(wire.TypeAuditChallenge, ch.Marshal()); err != nil {
		t.Fatal(err)
	}
	if _, err := wr.Expect(wire.TypeAuditResponse); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		want uint64
	}{
		{peer.MetricOverloadSheds, 2}, // the refusal and the preemption
		{peer.MetricOverloadPreempts, 1},
		{peer.MetricOverloadExpired, 1},
		{peer.MetricStoredBytes, uint64(len(blob))},
		{peer.MetricAuditsAnswered, 1},
		{peer.MetricAuditSampled, 2},
		{peer.MetricAuditHeld, 1},
	} {
		if got := reg.Counter(c.name, "").Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
