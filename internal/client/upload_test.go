package client_test

// The write path's connection: windowed PUT/PATCH, and the regression
// for transfers that ignored their context once the handshake was done
// (dial cleared the conn deadline and the PUT loop never looked at
// ctx, so a peer that stopped reading hung the caller forever).

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/netsim"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// mintMessages returns n messages of one generation with m-symbol
// GF(2^8) payloads.
func mintMessages(t *testing.T, fileID uint64, data []byte, k, m, n int) (*rlnc.Encoder, []*rlnc.Message) {
	t.Helper()
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), k, m, len(data))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rlnc.NewEncoder(params, fileID, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]*rlnc.Message, n)
	for i := range msgs {
		msgs[i] = enc.Message(uint64(i))
	}
	return enc, msgs
}

// TestDisseminateAndPatchAcrossWindows sends more messages than one
// acknowledgement window holds, so the window boundary (150 = 64 + 64 +
// 22) is crossed twice in each direction, and checks what the peer
// stored byte for byte.
func TestDisseminateAndPatchAcrossWindows(t *testing.T) {
	st := store.NewMemory()
	node := startPeer(t, 50, st)
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	oldData := bytes.Repeat([]byte("old version "), 40)
	newData := bytes.Repeat([]byte("new version "), 40)
	_, msgs := mintMessages(t, 77, oldData, 4, 120, 150)
	if err := c.Disseminate(ctx, node.Addr().String(), msgs); err != nil {
		t.Fatal(err)
	}
	if got := st.Count(77); got != len(msgs) {
		t.Fatalf("peer stores %d messages, sent %d", got, len(msgs))
	}

	newEnc, _ := mintMessages(t, 77, newData, 4, 120, 0)
	delta, err := rlnc.NewDeltaEncoder(newEnc.Params(), 77, testSecret(), oldData, newData)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]*rlnc.Message, len(msgs))
	for i := range deltas {
		deltas[i] = delta.Delta(uint64(i))
	}
	if err := patch(c)(ctx, node.Addr().String(), deltas); err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		got, err := st.Get(77, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := newEnc.Message(uint64(i)); !got.Equal(want) {
			t.Fatalf("message %d after patch is not the new version's", i)
		}
	}
}

// stalledPeer accepts connections, completes the handshake and then
// never reads or writes again — a peer that is up but wedged. It
// returns when ln is closed.
func stalledPeer(t *testing.T, ln net.Listener) {
	t.Helper()
	id := identity(t, 60)
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		close(done)
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := wire.ResponderHandshake(wire.NewFrameReader(conn), wire.NewFrameWriter(conn), id, nil); err != nil {
					return
				}
				<-done
			}()
		}
	}()
}

// patch sends deltas on one upload session, as Disseminate does msgs.
func patch(c *client.Client) func(context.Context, string, []*rlnc.Message) error {
	return func(ctx context.Context, addr string, deltas []*rlnc.Message) error {
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
}

// uploadCases are the two transfers that ride an Upload.
func uploadCases(c *client.Client) map[string]func(context.Context, string, []*rlnc.Message) error {
	return map[string]func(context.Context, string, []*rlnc.Message) error{
		"Disseminate": c.Disseminate,
		"Patch":       patch(c),
	}
}

func TestUploadHonoursDeadlineAgainstStalledNetsimPeer(t *testing.T) {
	fabric := netsim.NewFabric(1)
	ln, err := fabric.Host("peer").Listen("peer:7000")
	if err != nil {
		t.Fatal(err)
	}
	stalledPeer(t, ln)
	c, err := client.NewWith(identity(t, 1), nil, client.Options{Transport: fabric.Host("user")})
	if err != nil {
		t.Fatal(err)
	}
	_, msgs := mintMessages(t, 9, make([]byte, 4<<10), 4, 1<<10, 8)
	for name, upload := range uploadCases(c) {
		// netsim queues writes without bound, so the transfer gets as far
		// as waiting for the first acknowledgement: the read must end.
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		start := time.Now()
		err := upload(ctx, "peer:7000", msgs)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s against a stalled peer: %v, want deadline exceeded", name, err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("%s took %v to notice a 300ms deadline", name, elapsed)
		}
	}
}

func TestUploadHonoursCancelAgainstStalledTCPPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalledPeer(t, ln)
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 64 x 256 KiB: the kernel's loopback buffers fill and the write
	// itself parks — only closing the connection gets it back.
	_, msgs := mintMessages(t, 9, make([]byte, 1<<20), 4, 256<<10, 64)
	for name, upload := range uploadCases(c) {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(200*time.Millisecond, cancel)
		start := time.Now()
		err := upload(ctx, ln.Addr().String(), msgs)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s against a stalled peer: %v, want canceled", name, err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("%s took %v to notice the cancel", name, elapsed)
		}
	}
}

// TestUploadSurfacesPeerRefusal: a PUT the peer refuses (the file-id
// belongs to someone else) must come back as the peer's typed error
// even though it arrives in the middle of a window.
func TestUploadSurfacesPeerRefusal(t *testing.T) {
	node := startPeer(t, 51, nil)
	owner, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	intruder, err := client.New(identity(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, msgs := mintMessages(t, 5, make([]byte, 400), 4, 100, 12)
	if err := owner.Disseminate(ctx, node.Addr().String(), msgs[:1]); err != nil {
		t.Fatal(err)
	}
	err = intruder.Disseminate(ctx, node.Addr().String(), msgs)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeNotPermitted {
		t.Fatalf("intruder's upload: %v, want the peer's not-permitted error", err)
	}
}

// TestControlRPCsHonourContextAgainstMutePeer: every one-round-trip RPC
// used to clear the conn deadline after the handshake and then read
// with no deadline and no cancel hook, so a peer that authenticated and
// went mute held the caller (and a spot-check round) forever.
func TestControlRPCsHonourContextAgainstMutePeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalledPeer(t, ln)
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	amounts := map[string]uint64{"someone": 1}
	rpcs := map[string]func(context.Context) error{
		"SendFeedback":      func(ctx context.Context) error { return c.SendFeedback(ctx, addr, amounts) },
		"SendAuditVerdicts": func(ctx context.Context) error { return c.SendAuditVerdicts(ctx, addr, amounts) },
		"Audit": func(ctx context.Context) error {
			_, _, err := c.Audit(ctx, addr, []wire.AuditChallenge{{FileID: 1}}, time.Minute)
			return err
		},
	}
	for name, rpc := range rpcs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- rpc(ctx) }()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("against a mute peer: %v, want the context's error", err)
				}
			case <-time.After(1200 * time.Millisecond):
				t.Error("still blocked 1 s after its 200 ms context ended")
			}
		})
	}
}
