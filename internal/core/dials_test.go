package core_test

// The write path opens one connection per destination per call: an
// update or a repair touching several chunks of a peer dials it once.
// A spot-check round probes each peer on one connection per attempt,
// however many chunks it holds. A manifest that fails validation costs
// no dial at all.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"asymshare/internal/audit"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/transport"
)

// countingTransport is TCP that counts its dials.
type countingTransport struct {
	transport.TCP
	dials atomic.Int64
}

func (c *countingTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c.dials.Add(1)
	return c.TCP.DialContext(ctx, addr)
}

func TestUpdateFileDialsEachPeerOnce(t *testing.T) {
	tr := new(countingTransport)
	sys, err := core.NewSystem(identity(t, 160), nil, core.WithPlan(smallPlan()),
		core.WithClientOptions(client.Options{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{startPeer(t, 161).Addr().String(), startPeer(t, 162).Addr().String(), startPeer(t, 163).Addr().String()}
	oldData := make([]byte, 3000) // 3 chunks under smallPlan
	rand.New(rand.NewSource(16)).Read(oldData)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "dials.bin", oldData, addrs)
	if err != nil {
		t.Fatal(err)
	}

	newData := bytes.Clone(oldData)
	newData[100] ^= 0xFF  // chunk 0
	newData[2500] ^= 0xFF // chunk 2
	tr.dials.Store(0)
	upd, err := sys.UpdateFile(ctx, &res.Handle, res.Secret, oldData, newData)
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.ChangedChunks) != 2 {
		t.Fatalf("ChangedChunks = %v, want two", upd.ChangedChunks)
	}
	if n := tr.dials.Load(); n != int64(len(addrs)) {
		t.Errorf("a 2-chunk update on %d peers dialled %d times, want one per peer", len(addrs), n)
	}
	if back, _, err := sys.FetchFile(ctx, &res.Handle, res.Secret); err != nil || !bytes.Equal(back, newData) {
		t.Fatalf("fetch after update: %v, identical=%v", err, bytes.Equal(back, newData))
	}
}

func TestRepairDialsOnceToProbeAndOnceToUpload(t *testing.T) {
	tr := new(countingTransport)
	sys, err := core.NewSystem(identity(t, 170), nil, core.WithPlan(smallPlan()),
		core.WithClientOptions(client.Options{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	lossy, st := startPeerOn(t, 171)
	addrs := []string{lossy.Addr().String(), startPeer(t, 172).Addr().String()}
	data := make([]byte, 2200) // 3 chunks under smallPlan
	rand.New(rand.NewSource(17)).Read(data)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "repair.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Drop(res.Handle.Manifest.Chunks[1].FileID); err != nil {
		t.Fatal(err)
	}

	tr.dials.Store(0)
	n, err := sys.Repair(ctx, &res.Handle, res.Secret, data)
	if err != nil {
		t.Fatal(err)
	}
	if k := res.Handle.Manifest.Chunks[1].K; n != k {
		t.Errorf("repair uploaded %d messages, want the lost batch's %d", n, k)
	}
	if got := tr.dials.Load(); got != 3 {
		t.Errorf("repair of one lost batch on 2 peers dialled %d times, want 3: one probe each, one upload", got)
	}
	if back, _, err := sys.FetchFile(ctx, &res.Handle, res.Secret); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("fetch after repair: %v, identical=%v", err, bytes.Equal(back, data))
	}
}

func TestSpotCheckDialsUnreachablePeerPerRoundNotPerChunk(t *testing.T) {
	tr := new(countingTransport)
	sys, err := core.NewSystem(identity(t, 175), nil, core.WithPlan(smallPlan()),
		core.WithClientOptions(client.Options{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	gone := startPeer(t, 176)
	addrs := []string{gone.Addr().String(), startPeer(t, 177).Addr().String()}
	data := make([]byte, 2200) // 3 chunks under smallPlan
	rand.New(rand.NewSource(18)).Read(data)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "gone.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()

	tr.dials.Store(0)
	report, err := sys.SpotCheck(ctx, &res.Handle, res.Secret, core.SpotCheckOptions{Sample: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.FailedChunks[addrs[0]]; len(got) != 3 || report.Stats.Timeouts != 3 {
		t.Fatalf("unreachable peer: failed chunks %v, %d timeouts; want all 3 chunks timed out", got, report.Stats.Timeouts)
	}
	if want := int64(1 + 1 + audit.DefaultMaxRetries); tr.dials.Load() != want {
		t.Errorf("spot-check round dialled %d times, want %d: one to the live peer, 1+%d to the unreachable one for all its chunks",
			tr.dials.Load(), want, audit.DefaultMaxRetries)
	}
}

// TestSumlessManifestRefusedBeforeAnyDial: a manifest without a Sum on
// every chunk — the format shares had before chunks carried one — is
// refused by every fetch flavour and by UpdateFile with
// chunk.ErrBadManifest, before a single dial. StreamFile would
// otherwise play chunks no sum had checked.
func TestSumlessManifestRefusedBeforeAnyDial(t *testing.T) {
	tr := new(countingTransport)
	sys, err := core.NewSystem(identity(t, 180), nil, core.WithPlan(smallPlan()),
		core.WithClientOptions(client.Options{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{startPeer(t, 181).Addr().String(), startPeer(t, 182).Addr().String()}
	data := make([]byte, 2500) // 3 chunks under smallPlan
	rand.New(rand.NewSource(18)).Read(data)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sys.ShareFile(ctx, "old.bin", data, addrs)
	if err != nil {
		t.Fatal(err)
	}
	h := &res.Handle
	stripSums(h)
	edited := bytes.Clone(data)
	edited[0] ^= 1

	tr.dials.Store(0)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"FetchFile", func() error {
			_, _, err := sys.FetchFile(ctx, h, res.Secret)
			return err
		}},
		{"StreamFile", func() error {
			s, err := sys.Client().StreamFile(ctx, h.Peers, &h.Manifest, res.Secret, client.StreamOptions{})
			if err == nil {
				s.Close()
			}
			return err
		}},
		{"UpdateFile", func() error {
			_, err := sys.UpdateFile(ctx, h, res.Secret, data, edited)
			return err
		}},
	} {
		if err := tc.run(); !errors.Is(err, chunk.ErrBadManifest) {
			t.Errorf("%s on a sum-less manifest: %v, want chunk.ErrBadManifest", tc.name, err)
		}
		if n := tr.dials.Swap(0); n != 0 {
			t.Errorf("%s on a sum-less manifest dialled %d times", tc.name, n)
		}
	}
}
