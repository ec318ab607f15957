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
	got, _, err := c.FetchGeneration(ctx, []string{node.Addr().String()}, params, 42, testSecret(), nil)
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
