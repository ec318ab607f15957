package core

// streamShare from the inside: the batch slot's allocation gate, and
// the whole-file hasher that now runs beside the encode → send →
// collect stages — joined on success, stopped and waited for on failure.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

func testShare(t *testing.T, plan chunk.Plan, size int) (*chunk.Share, []byte) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(data)
	share, err := chunk.NewShare("t.bin", data, plan, 500, []byte("stream-share-secret"))
	if err != nil {
		t.Fatal(err)
	}
	if share.Manifest.ContentMD5 != "" {
		t.Fatalf("NewShare filled ContentMD5 %q; that is streamShare's to join", share.Manifest.ContentMD5)
	}
	return share, data
}

// TestBatchSlotMintSteadyStateAllocs: once a slot and an encoder's
// scratch are warm, minting a batch — ids, k encodes, one DigestBatch —
// allocates nothing.
func TestBatchSlotMintSteadyStateAllocs(t *testing.T) {
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 1024, ChunkSize: 8 * 4096} // k = 8, the lanes' group
	share, _ := testShare(t, plan, 2*plan.ChunkSize)
	p := share.Encoder(0).Params()
	slot := newBatchSlot(p.K, p.ChunkBytes())
	rank := 0
	mint := func() {
		if err := slot.mint(rank%2, share.Encoder(rank%2), rank%3); err != nil {
			t.Fatal(err)
		}
		rank++
	}
	for i := 0; i < 6; i++ {
		mint()
	}
	if avg := testing.AllocsPerRun(30, mint); avg != 0 {
		t.Fatalf("batchSlot.mint allocates %.1f times per batch, want 0", avg)
	}
	want := make([]rlnc.Digest, len(slot.msgs))
	for j, m := range slot.msgs {
		want[j] = m.Digest()
	}
	for j := range want {
		if slot.digests[j] != want[j] {
			t.Fatalf("slot digest %d is not the message's", j)
		}
	}
}

// sinkTo returns an open function whose sinks call put for every batch.
func sinkTo(put func(dest int, msgs []*rlnc.Message) error) func(context.Context, int) (batchSink, error) {
	return func(_ context.Context, dest int) (batchSink, error) {
		return batchSink{
			put:  func(_ *chunk.ChunkInfo, msgs []*rlnc.Message) error { return put(dest, msgs) },
			done: func() error { return nil },
		}, nil
	}
}

func flatJobs(share *chunk.Share, ndest int) []shareJob {
	var jobs []shareJob
	for c := 0; c < share.NumChunks(); c++ {
		for d := 0; d < ndest; d++ {
			jobs = append(jobs, shareJob{dest: d, chunk: c, rank: d})
		}
	}
	return jobs
}

// TestStreamShareJoinsContentDigest: a share that succeeds has the
// file's digest in its manifest when streamShare returns; one that
// fails — a destination's error, or the caller's context — returns that
// first error, publishes no ContentMD5, and has no goroutine (the hasher
// included) still running. The file is megabytes long so the hasher is
// mid-file when the failure lands.
func TestStreamShareJoinsContentDigest(t *testing.T) {
	plan := chunk.Plan{FieldBits: gf.Bits32, M: 1 << 13, ChunkSize: 1 << 18} // k = 8
	errSink := errors.New("destination 1 is full")

	cases := []struct {
		name string
		run  func(ctx context.Context, cancel context.CancelFunc) func(int, []*rlnc.Message) error
		want error
	}{
		{"success", func(context.Context, context.CancelFunc) func(int, []*rlnc.Message) error {
			return func(int, []*rlnc.Message) error { return nil }
		}, nil},
		{"destination fails", func(context.Context, context.CancelFunc) func(int, []*rlnc.Message) error {
			return func(dest int, _ []*rlnc.Message) error {
				if dest == 1 {
					return errSink
				}
				return nil
			}
		}, errSink},
		{"caller cancels", func(_ context.Context, cancel context.CancelFunc) func(int, []*rlnc.Message) error {
			return func(int, []*rlnc.Message) error {
				cancel()
				return nil
			}
		}, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			share, data := testShare(t, plan, 24*plan.ChunkSize+777)
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sent, _, err := streamShare(ctx, share, data, 2, flatJobs(share, 2), sinkTo(tc.run(ctx, cancel)))
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after streamShare returned, %d before it", n, baseline)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("streamShare: %v, want %v", err, tc.want)
			}
			if tc.want != nil {
				if share.Manifest.ContentMD5 != "" {
					t.Errorf("failed share published ContentMD5 %q", share.Manifest.ContentMD5)
				}
				return
			}
			if got, want := share.Manifest.ContentMD5, chunk.ContentDigest(data); got != want {
				t.Errorf("ContentMD5 %q, the file's is %q", got, want)
			}
			if sent == 0 || sent != share.Manifest.DigestCount() {
				t.Errorf("sent %d messages, manifest records %d digests", sent, share.Manifest.DigestCount())
			}
		})
	}

	// No jobs: nothing to overlap with, the digest is still there.
	share, data := testShare(t, plan, plan.ChunkSize)
	if _, _, err := streamShare(context.Background(), share, data, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if share.Manifest.ContentMD5 != chunk.ContentDigest(data) {
		t.Error("a share with no jobs has no ContentMD5")
	}
}

// TestContentDigestStopsWithContext: the step-wise hash equals the
// one-shot and gives up between steps once its context has ended.
func TestContentDigestStopsWithContext(t *testing.T) {
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(9)).Read(data)
	for _, step := range []int{1, 999, 10_000, 1 << 20} {
		if got := contentDigest(context.Background(), data, step); got != chunk.ContentDigest(data) {
			t.Fatalf("step %d: %q, want %q", step, got, chunk.ContentDigest(data))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := contentDigest(ctx, data, 999); got != "" {
		t.Fatalf("hash on an ended context returned %q", got)
	}
}
