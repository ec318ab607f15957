package core_test

// The write path opens one connection per destination per call: an
// update or a repair touching several chunks of a peer dials it once.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

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

func TestRepairDialsOnceToListAndOnceToUpload(t *testing.T) {
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
		t.Errorf("repair of one lost batch on 2 peers dialled %d times, want 3: one LIST each, one upload", got)
	}
	if back, _, err := sys.FetchFile(ctx, &res.Handle, res.Secret); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("fetch after repair: %v, identical=%v", err, bytes.Equal(back, data))
	}
}
