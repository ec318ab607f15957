package peer_test

// End-to-end data modification (Sec. VI-A): the owner pushes delta
// messages over the wire; peers patch their stored messages in place;
// the user then fetches the NEW version, authenticated by recomputed
// digests.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

// patch sends deltas to addr on one upload session.
func patch(ctx context.Context, c *client.Client, addr string, deltas []*rlnc.Message) error {
	u, err := c.OpenUpload(ctx, addr)
	if err != nil {
		return err
	}
	if err := u.Patch(deltas); err != nil {
		u.Close()
		return err
	}
	return u.Close()
}

func TestPatchThenFetchNewVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	params := smallParams(t, 8, 64, 512)
	oldData := make([]byte, 512)
	rng.Read(oldData)
	newData := bytes.Clone(oldData)
	copy(newData[100:130], bytes.Repeat([]byte{0xEE}, 30)) // in-place edit

	owner := identity(t, 230)
	c, err := client.New(owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	oldEnc, err := rlnc.NewEncoder(params, 88, testSecret(), oldData)
	if err != nil {
		t.Fatal(err)
	}
	newEnc, err := rlnc.NewEncoder(params, 88, testSecret(), newData)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := rlnc.NewDeltaEncoder(params, 88, testSecret(), oldData, newData)
	if err != nil {
		t.Fatal(err)
	}

	var addrs []string
	newDigests := make(map[uint64]rlnc.Digest)
	for i := 0; i < 2; i++ {
		node := startPeer(t, peer.Config{Identity: identity(t, byte(231+i)), Store: store.NewMemory()})
		batch, err := oldEnc.BatchForPeer(i, params.K)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Disseminate(ctx, node.Addr().String(), batch); err != nil {
			t.Fatal(err)
		}
		// Owner computes deltas for exactly the ids this peer holds and
		// records the new-version digests for the manifest.
		deltas := make([]*rlnc.Message, 0, len(batch))
		for _, msg := range batch {
			deltas = append(deltas, delta.Delta(msg.MessageID))
			newDigests[msg.MessageID] = newEnc.Message(msg.MessageID).Digest()
		}
		if err := patch(ctx, c, node.Addr().String(), deltas); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, node.Addr().String())
	}

	got, stats, err := c.FetchGeneration(ctx, addrs, params, 88, testSecret(), newDigests)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("fetched data is not the new version")
	}
	if stats.Rejected != 0 {
		t.Errorf("rejected = %d; patched messages should verify against new digests", stats.Rejected)
	}
}

func TestPatchRejectedFromNonOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	params := smallParams(t, 4, 32, 128)
	data := make([]byte, 128)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 77, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := enc.BatchForPeer(0, params.K)
	if err != nil {
		t.Fatal(err)
	}

	node := startPeer(t, peer.Config{Identity: identity(t, 240), Store: store.NewMemory()})
	owner, err := client.New(identity(t, 241), nil)
	if err != nil {
		t.Fatal(err)
	}
	intruder, err := client.New(identity(t, 242), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := owner.Disseminate(ctx, node.Addr().String(), batch); err != nil {
		t.Fatal(err)
	}

	// A different identity may neither patch nor overwrite the file.
	forged := batch[0].Clone()
	forged.Payload[0] ^= 1
	if err := patch(ctx, intruder, node.Addr().String(), []*rlnc.Message{forged}); err == nil {
		t.Error("non-owner patch accepted")
	}
	if err := intruder.Disseminate(ctx, node.Addr().String(), []*rlnc.Message{forged}); err == nil {
		t.Error("non-owner overwrite accepted")
	}
	// The stored data is untouched: the owner still fetches the
	// original bytes.
	got, _, err := owner.FetchGeneration(ctx, []string{node.Addr().String()}, params, 77, testSecret(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored data was corrupted by non-owner")
	}
}

func TestPatchUnknownMessageFails(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 243), Store: store.NewMemory()})
	c, err := client.New(identity(t, 244), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	delta := &rlnc.Message{FileID: 5, MessageID: 9, Payload: []byte{1, 2}}
	if err := patch(ctx, c, node.Addr().String(), []*rlnc.Message{delta}); err == nil {
		t.Error("patch for unknown message accepted")
	}
}

func TestListFiles(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 245), Store: store.NewMemory()})
	c, err := client.New(identity(t, 246), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Empty store lists empty.
	files, err := c.ListFiles(ctx, node.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("empty store list = %v", files)
	}
	// Store two generations.
	msgs := []*rlnc.Message{
		{FileID: 10, MessageID: 1, Payload: []byte{1}},
		{FileID: 10, MessageID: 2, Payload: []byte{2}},
		{FileID: 20, MessageID: 1, Payload: []byte{3}},
	}
	if err := c.Disseminate(ctx, node.Addr().String(), msgs); err != nil {
		t.Fatal(err)
	}
	files, err = c.ListFiles(ctx, node.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("list = %v", files)
	}
	if files[0].FileID != 10 || files[0].Messages != 2 || files[1].FileID != 20 || files[1].Messages != 1 {
		t.Errorf("list contents = %v", files)
	}
}
