package harness

// The split (DESIGN.md §14): a peer whose DATA frames keep
// arriving after STOP is asked for its share of each generation through
// GET's Limit; a peer that something paces is asked for everything and
// stopped at rank k, as before. What crosses the wire is asserted from
// both ends — the bytes peers count as served, and the GET_MUX frames
// the client wrote, parsed back out of its side of every connection —
// so nothing here depends on how long anything took. `make wire-audit`
// runs the first two tests.

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// getRecorder is a client transport that keeps what the client writes
// on every connection it dials, so a test can read back the requests.
type getRecorder struct {
	transport.Transport

	mu    sync.Mutex
	conns []*recordedConn
}

type recordedConn struct {
	net.Conn
	mu      sync.Mutex
	written bytes.Buffer
}

func (rc *recordedConn) Write(b []byte) (int, error) {
	rc.mu.Lock()
	rc.written.Write(b)
	rc.mu.Unlock()
	return rc.Conn.Write(b)
}

func (gr *getRecorder) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := gr.Transport.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	rc := &recordedConn{Conn: conn}
	gr.mu.Lock()
	gr.conns = append(gr.conns, rc)
	gr.mu.Unlock()
	return rc, nil
}

// limits returns the Limit of every GET_MUX written since the last
// call, in no particular order. Handshake and control frames ride the
// same framing and are skipped.
func (gr *getRecorder) limits(t *testing.T) []uint32 {
	t.Helper()
	gr.mu.Lock()
	conns := gr.conns
	gr.conns = nil
	gr.mu.Unlock()
	var out []uint32
	for _, rc := range conns {
		rc.mu.Lock()
		fr := wire.NewFrameReader(bytes.NewReader(rc.written.Bytes()))
		rc.mu.Unlock()
		for {
			typ, b, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("client wrote an unparsable frame: %v", err)
			}
			if typ == wire.TypeGetMux {
				var get wire.Get
				if err := get.Unmarshal(b.Bytes()); err != nil {
					t.Fatal(err)
				}
				out = append(out, get.Limit)
			}
			b.Release()
		}
	}
	return out
}

// splitClient is a long-lived instrumented client on its own fabric
// host, with its requests recorded. With unpaced set, what the host
// sends takes 2 ms to reach a peer: long enough that a peer nothing
// paces has written everything it was asked for before a STOP can land,
// whatever the scheduler does — the blast every real round trip allows.
func splitClient(t *testing.T, c *Cluster, host string, unpaced bool, opts client.Options) (*client.Client, *getRecorder, *metrics.Registry) {
	t.Helper()
	if unpaced {
		for _, p := range c.Peers {
			c.Fabric.SetLink(host, p.Host, netsim.LinkPolicy{Latency: 2 * time.Millisecond})
		}
	}
	gr := &getRecorder{Transport: c.Fabric.Host(host)}
	opts.Transport = gr
	cl, err := client.NewWith(c.Owner, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cl.Instrument(reg)
	return cl, gr, reg
}

// served is the total of DATA bytes every peer counts as served, read
// once the count has stopped moving: a STOP or a close takes the link's
// latency to reach a peer, and until it does the peer is still writing,
// and counting, what the fetch before no longer reads.
func served(c *Cluster) int64 {
	for prev := int64(-1); ; {
		var total int64
		for _, p := range c.Peers {
			for _, n := range p.Node.ServedBytes() {
				total += n
			}
		}
		if total == prev {
			return total
		}
		prev = total
		time.Sleep(10 * time.Millisecond)
	}
}

// needed is the message bytes a fetch of m cannot do without: k
// messages per chunk.
func needed(t *testing.T, m *chunk.Manifest) (total int64) {
	t.Helper()
	for _, info := range m.Chunks {
		params, err := info.Params(m.Plan)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(params.K * params.MessageBytes())
	}
	return total
}

func marked(cl *client.Client, c *Cluster) (n int) {
	for _, p := range c.Peers {
		if cl.PeerHealth(p.Addr).OutrunsStop {
			n++
		}
	}
	return n
}

func shares(reg *metrics.Registry, outcome string) uint64 {
	return reg.Counter(client.MetricShares, "", metrics.L("outcome", outcome)).Value()
}

// TestSplitUnshapedPeersServeWhatTheManifestNeeds: nothing paces these
// peers, so each sends all it holds before STOP can land — 4 × k
// messages for a chunk that needs k. One priming fetch is the evidence;
// from then on every peer is asked for k/4 and the peers together serve
// the manifest's own size, to the byte.
func TestSplitUnshapedPeersServeWhatTheManifestNeeds(t *testing.T) {
	seed := Seed(t, 2201)
	ctx := testCtx(t)
	c := Start(t, seed, 4)
	// k = 8 over GF(2^32), as shipped: two messages from each of four
	// peers are independent but for one draw in 2^32. (In GF(2^8) one
	// chunk in 255 is short and takes a second round.)
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 256, ChunkSize: 8 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, 64<<10) // 8 chunks
	cl, gr, reg := splitClient(t, c, "split-unshaped", true, client.Options{})
	need := needed(t, &h.Manifest)

	fetch := func() (servedBytes int64, stats client.FetchStats) {
		before := served(c)
		got, stats, err := cl.FetchFile(ctx, h.Peers, &h.Manifest, secret)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("decoded bytes differ from original")
		}
		return served(c) - before, stats
	}

	primed, pstats := fetch()
	if primed < 2*need { // the window that was in flight before the evidence was
		t.Fatalf("priming fetch: peers served %d bytes for %d needed; the scenario no longer blasts", primed, need)
	}
	if pstats.SurplusBytes == 0 {
		t.Fatal("priming fetch read surplus frames but FetchStats.SurplusBytes is 0")
	}
	for i := 0; marked(cl, c) < len(c.Peers); i++ {
		if i == 20 {
			t.Fatalf("%d of %d peers marked after %d unsplit fetches", marked(cl, c), len(c.Peers), i+1)
		}
		fetch()
	}
	gr.limits(t)
	sharesBefore := shares(reg, "complete")

	got, stats := fetch()
	if float64(got) > 1.10*float64(need) {
		t.Fatalf("peers served %d bytes for a manifest that needs %d (%.2f×), want ≤ 1.10×",
			got, need, float64(got)/float64(need))
	}
	for _, l := range gr.limits(t) {
		if l != 2 {
			t.Fatalf("GET_MUX limit %d with four marked peers and k = 8, want 2", l)
		}
	}
	if stats.SurplusBytes != 0 {
		t.Errorf("split fetch still read %d surplus bytes", stats.SurplusBytes)
	}
	if n := shares(reg, "complete") - sharesBefore; n != uint64(4*len(h.Manifest.Chunks)) {
		t.Errorf("client_shares_total{complete} rose by %d, want %d", n, 4*len(h.Manifest.Chunks))
	}
	if n := shares(reg, "second_round"); n != 0 {
		t.Errorf("client_shares_total{second_round} = %d on healthy peers", n)
	}
	t.Logf("unsplit %.2f×, split %.2f× of %d needed bytes", float64(primed)/float64(need), float64(got)/float64(need), need)
}

// pacedShares is each capped peer's fraction of FetchStats.BytesFrom in
// TestSplitLeavesPacedPeersAlone's scenario, measured at the parent of
// the split (eight runs, each within ±0.01 of these). Every stream's
// bucket starts with one message of burst, which is why the slowest
// peer does better than its 1/9.
var pacedShares = [4]float64{0.140, 0.247, 0.247, 0.366}

// TestSplitLeavesPacedPeersAlone: peers capped 1:2:2:4 by their own
// token buckets hold the next message back long enough for STOP to
// land. No address is ever marked, every request the client writes is
// the unlimited GET it has always been, and the peers' contributions
// stay where the caps put them.
func TestSplitLeavesPacedPeersAlone(t *testing.T) {
	seed := Seed(t, 2202)
	ctx := testCtx(t)
	c := Start(t, seed, 0)
	for i, mib := range []float64{2, 4, 4, 8} {
		c.startPeer("capped"+strconv.Itoa(i), byte(20+i), peer.Config{UploadBytesPerSec: mib * (1 << 20)})
	}
	data, h, secret := shareOverloadFile(t, ctx, c, chunk.DefaultPlan(), 16<<20)
	cl, gr, reg := splitClient(t, c, "split-paced", false, client.Options{})

	from := make(map[string]uint64)
	var total uint64
	for round := 0; round < 2; round++ {
		got, stats, err := cl.FetchFile(ctx, h.Peers, &h.Manifest, secret)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("decoded bytes differ from original")
		}
		for fp, n := range stats.BytesFrom {
			from[fp] += n
			total += n
		}
		if n := marked(cl, c); n != 0 {
			t.Fatalf("round %d: %d paced peers marked as outrunning STOP", round, n)
		}
	}
	for _, l := range gr.limits(t) {
		if l != 0 {
			t.Fatalf("GET_MUX limit %d sent to a paced peer, want 0", l)
		}
	}
	if n := shares(reg, "complete") + shares(reg, "second_round"); n != 0 {
		t.Fatalf("client_shares_total = %d with no peer marked", n)
	}
	for i, p := range c.Peers {
		share := float64(from[p.ID.Fingerprint()]) / float64(total)
		if math.Abs(share-pacedShares[i]) > 0.03 {
			t.Errorf("peer %d (cap ratio %v) delivered %.3f of the bytes, %.3f before the split", i, []int{1, 2, 2, 4}[i], share, pacedShares[i])
		}
	}
}

// seedUneven disseminates one generation with counts[i] ≤ k messages on
// peer i; forged names (peer, index) pairs whose payload is corrupted
// after its digest is recorded.
func seedUneven(t *testing.T, ctx context.Context, c *Cluster, fileID uint64, k, m int,
	counts []int, forged map[[2]int]bool) *Generation {
	t.Helper()
	dataLen := k * m * 4 // GF(2^32), as shipped: shares that sum to k are independent
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits32), k, m, dataLen)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("split, then ask again "), dataLen/22+1)[:dataLen]
	enc, err := rlnc.NewEncoder(params, fileID, Secret(), data)
	if err != nil {
		t.Fatal(err)
	}
	gen := &Generation{FileID: fileID, Params: params, Secret: Secret(), Data: data, Digests: make(map[uint64]rlnc.Digest)}
	owner := c.UserClient(client.Options{})
	for i, p := range c.Peers {
		batch, err := enc.BatchForPeer(i, counts[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, msg := range batch {
			gen.Digests[msg.MessageID] = msg.Digest()
			if forged[[2]int{i, j}] {
				msg.Payload[0] ^= 0xFF
			}
		}
		if err := owner.Disseminate(ctx, p.Addr, batch); err != nil {
			t.Fatalf("disseminate to %s: %v", p.Host, err)
		}
	}
	return gen
}

// TestSplitSecondRound: whatever leaves a split generation short, the
// rungs whose shares ended are asked again without a limit and the
// chunk completes byte-identical.
func TestSplitSecondRound(t *testing.T) {
	const (
		k = 8
		m = 256 // 1 KiB messages
	)
	full := []int{k, k, k, k}
	scenarios := []struct {
		name    string
		counts  []int
		forged  map[[2]int]bool
		cut     bool // peer0's connections die inside its first share
		cleared bool // peer0 must end unmarked
	}{
		{name: "peer holds less than its share", counts: []int{1, k, k, k}, cleared: true},
		{name: "forged message inside a share", counts: full, forged: map[[2]int]bool{{0, 1}: true}},
		{name: "peer dies mid-share", counts: full, cut: true, cleared: true},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			seed := Seed(t, 2210+int64(i))
			ctx := testCtx(t)
			c := Start(t, seed, 4)
			host := "split-second-" + strconv.Itoa(i)
			cl, gr, reg := splitClient(t, c, host, true, client.Options{RetryBackoff: 5 * time.Millisecond})
			addrs := make([]string, len(c.Peers))
			for j, p := range c.Peers {
				addrs[j] = p.Addr
			}
			fetch := func(gen *Generation) {
				t.Helper()
				got, _, err := cl.Fetch(ctx, client.FetchRequest{Peers: addrs, Params: gen.Params,
					FileID: gen.FileID, Secret: gen.Secret, Digests: gen.Digests})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, gen.Data) {
					t.Fatal("decoded bytes differ from original")
				}
			}

			// The evidence: a manifest fetch, whose early chunks' tail
			// frames are read while its later chunks download.
			plan := chunk.Plan{FieldBits: gf.Bits32, M: m, ChunkSize: k * m * 4}
			_, h, secret := shareOverloadFile(t, ctx, c, plan, 8*plan.ChunkSize)
			for n := 0; marked(cl, c) < len(c.Peers); n++ {
				if n == 20 {
					t.Fatalf("%d of %d peers marked after %d unsplit fetches", marked(cl, c), len(c.Peers), n)
				}
				if _, _, err := cl.FetchFile(ctx, addrs, &h.Manifest, secret); err != nil {
					t.Fatal(err)
				}
			}
			gr.limits(t)

			target := seedUneven(t, ctx, c, 0xA1, k, m, sc.counts, sc.forged)
			if sc.cut {
				// Handshake replies, one message, and the cut lands in
				// the second — on this and every redial.
				c.Fabric.SetLink(c.Peers[0].Host, host, netsim.LinkPolicy{CutAfterBytes: 1500})
			}
			fetch(target)

			limits := gr.limits(t)
			firstRound, again := 0, 0
			for _, l := range limits {
				switch l {
				case 2:
					firstRound++
				case 0:
					again++
				default:
					t.Fatalf("GET_MUX limit %d, want a share of 2 or everything", l)
				}
			}
			if firstRound < 4 || again == 0 {
				t.Fatalf("requests %v: want four shares of 2, then a second round without a limit", limits)
			}
			if n := shares(reg, "second_round"); n == 0 {
				t.Fatal("client_shares_total{second_round} = 0")
			}
			if sc.cleared && cl.PeerHealth(c.Peers[0].Addr).OutrunsStop {
				t.Fatal("peer0 is still marked after its share had to be finished by a second round")
			}
		})
	}
}
