package client_test

// The read path's tail (DESIGN.md §15): chunks decode in place, each
// is checked against its sum as soon as it is decoded, and the window's
// pipelines are reused. These tests pin that no flavour returns a byte
// unverified, with the error classes callers have always got, and that
// a call builds O(window) pipelines and parks what a read window
// releases in the frame pool.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

func randomBytes(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// disseminateBatch uploads peer peerIdx's batch of the share — after
// mutate, if any, has had its way with it — to a fresh in-memory peer
// and returns that peer.
func disseminateBatch(t *testing.T, c *client.Client, share *chunk.Share, peerIdx int,
	mutate func(batches [][]*rlnc.Message)) *peer.Node {
	t.Helper()
	batches, err := share.BatchForPeer(peerIdx, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(batches)
	}
	var flat []*rlnc.Message
	for _, b := range batches {
		flat = append(flat, b...)
	}
	node := startPeer(t, byte(150+peerIdx), nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Disseminate(ctx, node.Addr().String(), flat); err != nil {
		t.Fatal(err)
	}
	return node
}

// tamperCase is one way a fetch can be handed bytes, or a manifest, that
// are not the owner's. want nil: the fetch succeeds, byte-identical.
type tamperCase struct {
	name  string
	m     *chunk.Manifest
	peers []string
	want  error
}

// tamperedChunk is the chunk every tamperCase goes wrong in.
const tamperedChunk = 3

// tamperCases shares an eight-chunk file onto an honest peer and a
// dishonest one — it flips one payload byte of the first message it
// holds for the tampered chunk — and returns the table both fetch
// flavours are held to: a forged message with and without the
// per-message digests that would refuse it, tampered message digests,
// and the chunk's Sum one bit off, or covering a plaintext that differs
// from the owner's by one byte in its first, a middle or its last
// vector.
func tamperCases(t *testing.T) (*client.Client, []byte, []tamperCase) {
	t.Helper()
	data := randomBytes(11, 8*1024)
	c, err := client.New(identity(t, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	share, err := chunk.BuildShare("tamper.bin", data, testPlan(), 4000, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	dishonest := disseminateBatch(t, c, share, 0, func(batches [][]*rlnc.Message) {
		forged := batches[tamperedChunk][0].Clone()
		forged.Payload[5] ^= 0x40
		batches[tamperedChunk][0] = forged
	}).Addr().String()
	honest := disseminateBatch(t, c, share, 1, nil).Addr().String()

	// edit returns a copy of the manifest with the tampered chunk's entry
	// open to change.
	edit := func(change func(mid *chunk.ChunkInfo)) *chunk.Manifest {
		m := share.Manifest
		m.Chunks = append([]chunk.ChunkInfo(nil), m.Chunks...)
		change(&m.Chunks[tamperedChunk])
		return &m
	}
	cases := []tamperCase{
		{"control", &share.Manifest, []string{honest}, nil},
		{"forged message refused by its digest, no other source", &share.Manifest, []string{dishonest}, client.ErrIncomplete},
		{"forged message refused by its digest, honest peer fills in", &share.Manifest, []string{dishonest, honest}, nil},
		{"forged message decoded, caught by the content digest",
			edit(func(mid *chunk.ChunkInfo) { mid.Digests = nil }), []string{dishonest}, chunk.ErrBadManifest},
		{"tampered content digest",
			edit(func(mid *chunk.ChunkInfo) { mid.Sum[9] ^= 0x08 }), []string{honest}, chunk.ErrBadManifest},
		{"tampered message digests", edit(func(mid *chunk.ChunkInfo) {
			wrong := make(map[uint64]rlnc.Digest, len(mid.Digests))
			for id, d := range mid.Digests {
				d[0] ^= 1
				wrong[id] = d
			}
			mid.Digests = wrong
		}), []string{honest}, client.ErrIncomplete},
	}
	// testPlan cuts a chunk into k = 8 vectors of 128 bytes.
	for _, off := range []int{0, 127, 4*128 + 17, 7 * 128, 1023} {
		other := bytes.Clone(data[tamperedChunk*1024:][:1024])
		other[off] ^= 0x01
		cases = append(cases, tamperCase{
			fmt.Sprintf("content differs from what the sum covers at byte %d", off),
			edit(func(mid *chunk.ChunkInfo) { mid.Sum = mid.SumOf(testPlan(), other) }),
			[]string{honest}, chunk.ErrBadManifest,
		})
	}
	return c, data, cases
}

// TestFetchFileNeverReturnsUnverifiedBytes drives FetchFile through
// tamperCases. Whatever catches it — the per-message digest, or the
// chunk's sum once the forgery has been decoded into the output buffer
// — the caller gets the error class it always got, and never a byte.
func TestFetchFileNeverReturnsUnverifiedBytes(t *testing.T) {
	c, data, cases := tamperCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			got, _, err := c.FetchFile(ctx, tc.peers, tc.m, testSecret())
			if tc.want == nil {
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("FetchFile: err %v, identical %v", err, bytes.Equal(got, data))
				}
				return
			}
			if !errors.Is(err, tc.want) || got != nil {
				t.Fatalf("FetchFile = (%d bytes, %v), want (nil, %v)", len(got), err, tc.want)
			}
		})
	}
}

// TestStreamFileNeverPlaysUnverifiedBytes is the same table through
// StreamFile: the chunks before the tampered one play byte-identical,
// and Next returns the tampered one's error and no bytes — for the
// forgery no per-message digest refuses, too, which a stream used to
// play.
func TestStreamFileNeverPlaysUnverifiedBytes(t *testing.T) {
	c, data, cases := tamperCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			s, err := c.StreamFile(ctx, tc.peers, tc.m, testSecret(), client.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var played []byte
			for {
				i, piece, err := s.Next()
				if errors.Is(err, io.EOF) && tc.want == nil {
					break
				}
				if err != nil {
					if tc.want == nil || !errors.Is(err, tc.want) || i != tamperedChunk || piece != nil {
						t.Fatalf("Next = (chunk %d, %d bytes, %v), want (chunk %d, nil, %v)",
							i, len(piece), err, tamperedChunk, tc.want)
					}
					break
				}
				played = append(played, piece...)
			}
			want := data
			if tc.want != nil {
				want = data[:tamperedChunk*1024]
			}
			if !bytes.Equal(played, want) {
				t.Fatalf("played %d bytes, want the first %d of the file, byte-identical", len(played), len(want))
			}
		})
	}
}

// TestFetchBuildsWindowPipelines counts, through the client's own
// instrumentation, how many decode engines a manifest fetch builds: as
// many as it keeps chunks in flight — plus one when the last chunk's
// geometry differs — not one per chunk. The same instruments show how
// those engines verified what they were fed: each chunk's k = 8
// messages parked and digested as one group, side by side where the CPU
// has the lanes.
func TestFetchBuildsWindowPipelines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int
		extra uint64 // a short last chunk cannot reuse a full-size engine
	}{
		{"16 full chunks", 16 * 1024, 0},
		{"15 full chunks and a short one", 15*1024 + 100, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := randomBytes(12, tc.size)
			c, err := client.New(identity(t, 10), nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			c.Instrument(reg)
			built := reg.Counter(client.MetricPipelinesBuilt, "")
			m, addrs := buildAndDisseminate(t, c, data, 2)
			if len(m.Chunks) != 16 {
				t.Fatalf("manifest has %d chunks, want 16", len(m.Chunks))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			got, _, err := c.FetchFile(ctx, addrs, m, testSecret())
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("FetchFile: err %v, identical %v", err, bytes.Equal(got, data))
			}
			fetched := built.Value()
			if fetched == 0 || fetched > client.FetchFileStreams+tc.extra {
				t.Errorf("FetchFile of 16 chunks built %d pipelines, want 1..%d",
					fetched, client.FetchFileStreams+tc.extra)
			}
			// A chunk that meets a dependent row needs a ninth message,
			// verified as a group of its own: lower bounds, and nearly
			// everything through the lanes.
			groups := reg.Counter(client.MetricVerifyGroups, "").Value()
			lanes := reg.Counter(client.MetricVerifyMessages, "", metrics.L("arm", "lanes")).Value()
			scalar := reg.Counter(client.MetricVerifyMessages, "", metrics.L("arm", "scalar")).Value()
			full := uint64(tc.size / 1024)
			if groups < 16 || groups > 20 || lanes+scalar < 8*full+tc.extra {
				t.Errorf("FetchFile of 16 chunks verified %d+%d messages in %d groups, want one group of 8 per full chunk",
					lanes, scalar, groups)
			}
			if gf.HasAVX2() && lanes < 8*full {
				t.Errorf("%d of %d messages verified in the lanes, want at least %d", lanes, lanes+scalar, 8*full)
			}

			s, err := c.StreamFile(ctx, addrs, m, testSecret(), client.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var played []byte
			for {
				_, piece, err := s.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				played = append(played, piece...)
			}
			if !bytes.Equal(played, data) {
				t.Fatal("StreamFile mismatch")
			}
			streamed := built.Value() - fetched
			if streamed == 0 || streamed > client.DefaultPrefetch+1+tc.extra {
				t.Errorf("StreamFile of 16 chunks built %d pipelines, want 1..%d",
					streamed, client.DefaultPrefetch+1+tc.extra)
			}
		})
	}
}

// TestFetchFileSteadyStatePoolMisses: at the default plan one FetchFile
// keeps up to 4 chunks × 4 peers × 8 messages of 128 KiB + 16 B in
// flight and releases them in bursts. Once warm, the frame pool must
// serve those bursts from its free lists — under 5 % of gets allocate —
// and at teardown nothing is leaked or released twice.
func TestFetchFileSteadyStatePoolMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("shares a 16 MiB file with 4 peers")
	}
	data := randomBytes(13, 16<<20)
	c, err := client.New(identity(t, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	share, err := chunk.BuildShare("pool.bin", data, chunk.DefaultPlan(), 9000, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var nodes []*peer.Node
	for i := 0; i < 4; i++ {
		node := disseminateBatch(t, c, share, i, nil)
		nodes = append(nodes, node)
		addrs = append(addrs, node.Addr().String())
	}
	fetch := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		got, _, err := c.FetchFile(ctx, addrs, &share.Manifest, testSecret())
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("FetchFile: err %v, identical %v", err, bytes.Equal(got, data))
		}
	}
	for i := 0; i < 2; i++ {
		fetch() // warm-up: the free lists fill
	}
	before := wire.DefaultPool.Stats()
	for i := 0; i < 4; i++ {
		fetch()
	}
	after := wire.DefaultPool.Stats()
	gets, misses := after.Gets-before.Gets, after.Misses-before.Misses
	t.Logf("steady state: %d of %d pool gets missed", misses, gets)
	if gets == 0 || float64(misses) >= 0.05*float64(gets) {
		t.Errorf("steady-state FetchFile missed the frame pool on %d of %d gets, want < 5%%", misses, gets)
	}
	// Teardown: the fetches' session sets are closed already; once the
	// peers' connection handlers have exited too, every buffer is home.
	for _, node := range nodes {
		node.Close()
	}
	end := wire.DefaultPool.Stats()
	if end.Live != 0 || end.DoubleReleases != 0 {
		t.Errorf("at teardown: %d buffers live, %d double releases, want 0 and 0", end.Live, end.DoubleReleases)
	}
}
