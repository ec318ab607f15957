package client

// The half-open probe on the chunk ladder (DESIGN.md §14), white-box:
// a chunk whose only peer is a probe candidate launches its rung once,
// as the probe; a fresh call probes a cooled-down peer while its dial is
// still in flight; a probe rung driven through each way it can end
// leaves its peer's breaker in a live state — closed, re-opened with a
// doubled cooldown, or half-open with its slot free — never half-open
// with the slot claimed and no rung left to release it; and a peer's
// refusal of a file it does not hold is no failure of the peer.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// probeShare builds a one-chunk share (k = 8) with a batch of k messages
// for each of two holders; the manifest records every digest.
func probeShare(t *testing.T) (share *chunk.Share, data, secret []byte, batches [2][]*rlnc.Message) {
	t.Helper()
	secret = make([]byte, rlnc.SecretLen)
	for i := range secret {
		secret[i] = byte(i + 3)
	}
	data = bytes.Repeat([]byte("half-open probe "), 60)[:900]
	share, err := chunk.BuildShare("p.bin", data,
		chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}, 1000, secret)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batches {
		b, err := share.BatchForPeer(i, 1024)
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = b[0]
	}
	return share, data, secret, batches
}

// slowDial delays every dial to addr by delay, or until the dial's
// context ends.
type slowDial struct {
	transport.Transport
	addr  string
	delay time.Duration
}

func (s *slowDial) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	if addr == s.addr && !sleepCtx(ctx, s.delay) {
		return nil, ctx.Err()
	}
	return s.Transport.DialContext(ctx, addr)
}

// startHolder starts a TCP peer holding msgs, disseminated by c; with
// no msgs it holds nothing.
func startHolder(t *testing.T, ctx context.Context, c *Client, seed byte, msgs []*rlnc.Message) string {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{seed}, 32))
	if err != nil {
		t.Fatal(err)
	}
	n, err := peer.New(peer.Config{Identity: id, Store: store.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	addr := n.Addr().String()
	if len(msgs) > 0 {
		if err := c.Disseminate(ctx, addr, msgs); err != nil {
			t.Fatal(err)
		}
	}
	return addr
}

// quarantine opens addr's breaker through the threshold-1 failure path
// and backdates its cooldown, so the next ladder finds a probe
// candidate.
func quarantine(c *Client, addr string) {
	c.health.recordFailure(addr)
	c.health.mu.Lock()
	c.health.peers[addr].openUntil = time.Now().Add(-time.Millisecond)
	c.health.mu.Unlock()
}

// chunkRequest is the fetch request for the share's one chunk.
func chunkRequest(t *testing.T, share *chunk.Share, secret []byte) FetchRequest {
	t.Helper()
	info := share.Manifest.Chunks[0]
	params, err := info.Params(share.Manifest.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return FetchRequest{Params: params, FileID: info.FileID, Secret: secret, Digests: info.Digests}
}

// Regression for the all-quarantined corner: with every peer a probe
// candidate the ladder's t = 0 launches are the probes alone — the
// link's dial still in flight — and the last resort must not launch a
// probed rung a second time — a duplicate stream for the same file-id
// on the same session, whose register failure was classified as a real
// failure and re-opened the breaker right after the chunk had in fact
// been served.
func TestAllQuarantinedLaunchesEachRungOnce(t *testing.T) {
	clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWith(clientID, nil, Options{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	share, data, secret, batches := probeShare(t)
	addr := startHolder(t, ctx, c, 41, batches[0])

	set := c.newSessionSet(ctx)
	defer set.close()
	quarantine(c, addr)
	links := set.open([]string{addr})
	if ladder, probeFrom, coolFrom := c.health.order(links); len(ladder) != 1 || probeFrom != 0 || coolFrom != 1 {
		t.Fatalf("sanity: ladder len %d probeFrom %d coolFrom %d, want 1, 0 and 1", len(ladder), probeFrom, coolFrom)
	}

	pl := c.newPipelines(1)
	defer pl.close()
	piece, _, err := c.fetchChunk(ctx, links, chunkRequest(t, share, secret), pl, nil)
	if err != nil {
		t.Fatalf("all-quarantined fetch: %v", err)
	}
	got, err := chunk.Assemble(&share.Manifest, [][]byte{piece})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded bytes differ from original")
	}
	// The one failure is the quarantine's; the probe's success closed
	// the breaker, and a second launch of the rung would have failed
	// register and re-opened it.
	if s := c.PeerHealth(addr); s.Breaker != "closed" || s.Failures != 1 {
		t.Fatalf("health after fetch = %+v, want closed breaker with the quarantine's 1 failure", s)
	}
	if v := reg.Counter(MetricBreakerProbes, "").Value(); v != 1 {
		t.Fatalf("breaker_probes_total = %d, want 1", v)
	}
}

// A cooled-down peer is probed by the first chunk of a fresh call, not
// left out until some chunk happens to find its dial finished: here the
// dial takes longer than the other peer needs to run dry, and the probe
// rung waits it out and completes the chunk as the probe.
func TestFreshCallProbesCooledPeerWhileDialing(t *testing.T) {
	clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{43}, 32))
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowDial{Transport: transport.Default, delay: 100 * time.Millisecond}
	c, err := NewWith(clientID, nil, Options{Transport: slow, BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	share, data, secret, batches := probeShare(t)
	// The healthy peer holds half a generation: the chunk needs the
	// quarantined one.
	healthy := startHolder(t, ctx, c, 44, batches[0][:len(batches[0])/2])
	sick := startHolder(t, ctx, c, 45, batches[1])
	slow.addr = sick
	quarantine(c, sick)

	got, _, err := c.FetchFile(ctx, []string{healthy, sick}, &share.Manifest, secret)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded bytes differ from original")
	}
	if v := reg.Counter(MetricBreakerProbes, "").Value(); v != 1 {
		t.Fatalf("breaker_probes_total = %d, want 1: the dialing peer was not probed", v)
	}
	if s := c.PeerHealth(sick); s.Breaker != "closed" {
		t.Fatalf("breaker %s after the probe served the chunk, want closed", s.Breaker)
	}
}

// A peer that refuses a file it does not hold has answered: its breaker
// stays closed, and so the peer keeps its rungs for the files it does
// hold.
func TestUnknownFileIsNotAFailure(t *testing.T) {
	clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{46}, 32))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWith(clientID, nil, Options{BreakerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	share, _, secret, _ := probeShare(t)
	empty := startHolder(t, ctx, c, 47, nil)

	set := c.newSessionSet(ctx)
	defer set.close()
	pl := c.newPipelines(1)
	defer pl.close()
	if _, _, err := c.fetchChunk(ctx, set.open([]string{empty}), chunkRequest(t, share, secret), pl, nil); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("fetch from a peer without the file: %v, want ErrIncomplete", err)
	}
	if s := c.PeerHealth(empty); s.Breaker != "closed" || s.Failures != 0 {
		t.Fatalf("health %+v after a refusal, want a closed breaker and no failures", s)
	}
}

// TestProbeSlotReturnsToLiveState drives a half-open probe rung through
// each way it ends. The probe peer is a scripted fake over a pipe, its
// session handed to the ladder live — or, where it is reaped waiting on
// its dial, a dial that never returns; beside it (except where it must
// carry the chunk alone) a real peer holding the whole generation.
func TestProbeSlotReturnsToLiveState(t *testing.T) {
	const (
		probeAddr = "probe"
		cooldown  = 50 * time.Millisecond
	)
	share, data, secret, batches := probeShare(t)

	// Each script answers the probe's GET_MUX on the fake peer's end.
	type script func(t *testing.T, fw *wire.FrameWriter, srv net.Conn, get wire.Get)
	send := func(t *testing.T, fw *wire.FrameWriter, msgs []*rlnc.Message) {
		for _, m := range msgs {
			b, err := m.MarshalBinary()
			if err != nil {
				t.Error(err)
				return
			}
			if fw.WriteFrame(wire.TypeData, b) != nil {
				return // the client hung up: it has what it needed
			}
		}
	}
	cases := []struct {
		name  string
		alone bool // the probe is the chunk's only rung
		want  string
		run   script // nil: the probe has no session, and its dial hangs
	}{
		{"completes the chunk", true, "closed", func(t *testing.T, fw *wire.FrameWriter, _ net.Conn, _ wire.Get) {
			send(t, fw, batches[1])
		}},
		{"reaped mid-stream", false, "closed", func(t *testing.T, fw *wire.FrameWriter, _ net.Conn, _ wire.Get) {
			send(t, fw, batches[1][:1]) // then nothing: the other rung finishes the chunk
		}},
		{"shed with BUSY", false, "closed", func(t *testing.T, fw *wire.FrameWriter, _ net.Conn, get wire.Get) {
			b := wire.Busy{FileID: get.FileID, Code: wire.CodeBusy, RetryAfterMillis: 250, Reason: "full"}
			_ = fw.WriteFrame(wire.TypeBusy, b.Marshal())
		}},
		{"loses its session", false, "open", func(t *testing.T, _ *wire.FrameWriter, srv net.Conn, _ wire.Get) {
			srv.Close()
		}},
		{"reaped waiting on its dial", false, "half-open", nil},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{byte(60 + i)}, 32))
			if err != nil {
				t.Fatal(err)
			}
			// No redials: a lost probe session stays lost.
			c, err := NewWith(clientID, nil, Options{
				Transport:        &slowDial{Transport: transport.Default, addr: probeAddr, delay: time.Hour},
				BreakerThreshold: 1, BreakerCooldown: cooldown, PeerRetries: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			c.Instrument(reg)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			set := c.newSessionSet(ctx)
			defer set.close()
			var links []*peerLink
			if !tc.alone {
				links = set.open([]string{startHolder(t, ctx, c, byte(70+i), batches[0])})
			}
			probe := &peerLink{c: c, ctx: set.ctx, addr: probeAddr}
			set.links[probeAddr] = probe
			links = append(links, probe)
			if tc.run != nil {
				sess, srv, fw := pipeSessionFor(t, c, probeAddr)
				probe.sess = sess
				go func() { // the fake peer's reader
					fr := wire.NewFrameReader(srv)
					for {
						typ, b, err := fr.Next()
						if err != nil {
							return
						}
						var get wire.Get
						if typ == wire.TypeGetMux && get.Unmarshal(b.Bytes()) == nil {
							go tc.run(t, fw, srv, get)
						}
						b.Release()
					}
				}()
			}
			quarantine(c, probeAddr)

			pl := c.newPipelines(1)
			defer pl.close()
			piece, _, err := c.fetchChunk(ctx, links, chunkRequest(t, share, secret), pl, nil)
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			got, err := chunk.Assemble(&share.Manifest, [][]byte{piece})
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("decoded bytes differ from original (%v)", err)
			}
			if v := reg.Counter(MetricBreakerProbes, "").Value(); v != 1 {
				t.Fatalf("breaker_probes_total = %d, want 1: the rung was not launched as the probe", v)
			}

			// Every rung has returned: the slot must be back in a live
			// state, and this outcome's in particular.
			c.health.mu.Lock()
			p := *c.health.peers[probeAddr]
			c.health.mu.Unlock()
			switch {
			case p.state == breakerClosed,
				p.state == breakerOpen && p.cooldown == 2*cooldown,
				p.state == breakerHalfOpen && !p.probing:
			default:
				t.Fatalf("breaker %s (probing %v, cooldown %v) once fetchChunk returned: the probe slot is stranded",
					p.state, p.probing, p.cooldown)
			}
			if p.state.String() != tc.want {
				t.Fatalf("breaker %s (cooldown %v), want %s", p.state, p.cooldown, tc.want)
			}
		})
	}
}
