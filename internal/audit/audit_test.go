package audit

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// mkMessages stores n messages for fileID and returns their digests —
// the owner-side view of the obligation.
func mkMessages(t *testing.T, st store.Store, fileID uint64, n int) map[uint64]rlnc.Digest {
	t.Helper()
	digests := make(map[uint64]rlnc.Digest, n)
	for i := 0; i < n; i++ {
		msg := &rlnc.Message{FileID: fileID, MessageID: uint64(i), Payload: []byte{byte(i), byte(fileID)}}
		if err := st.Put(msg); err != nil {
			t.Fatal(err)
		}
		digests[uint64(i)] = msg.Digest()
	}
	return digests
}

// storeProber answers challenges honestly from per-address stores —
// the in-process stand-in for client.Client + peer.Node. Round calls it
// concurrently for distinct addresses.
type storeProber struct {
	stores map[string]store.Store
	calls  atomic.Int64
}

func (p *storeProber) Audit(_ context.Context, addr string, chs []wire.AuditChallenge, _ time.Duration) ([]*wire.AuditResponse, string, error) {
	p.calls.Add(1)
	st, ok := p.stores[addr]
	if !ok {
		return nil, "", errors.New("no such peer")
	}
	resps := make([]*wire.AuditResponse, len(chs))
	for i, ch := range chs {
		resps[i] = &wire.AuditResponse{FileID: ch.FileID}
		for _, id := range ch.MessageIDs {
			proof := wire.AuditProof{MessageID: id}
			if msg, err := st.Get(ch.FileID, id); err == nil {
				d := msg.Digest()
				proof.Present = true
				proof.MAC = auth.AuditMAC(ch.Key, ch.FileID, id, d[:])
			}
			resps[i].Proofs = append(resps[i].Proofs, proof)
		}
	}
	return resps, "fp-" + addr, nil
}

func TestBuildChallengeSamplesDistinctIDs(t *testing.T) {
	st := store.NewMemory()
	digests := mkMessages(t, st, 5, 20)
	target := Target{Addr: "a", FileID: 5, Digests: digests}
	rng := rand.New(rand.NewSource(1))
	ch, err := BuildChallenge(rng, []byte("secret"), &target, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.MessageIDs) != 8 {
		t.Fatalf("sampled %d ids, want 8", len(ch.MessageIDs))
	}
	seen := make(map[uint64]bool)
	for _, id := range ch.MessageIDs {
		if seen[id] {
			t.Errorf("duplicate sampled id %d", id)
		}
		seen[id] = true
		if _, ok := digests[id]; !ok {
			t.Errorf("sampled id %d outside obligation", id)
		}
	}
	// The key must be the canonical derivation for (secret, file, nonce).
	want, err := auth.DeriveAuditKey([]byte("secret"), 5, ch.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ch.Key, want) {
		t.Error("challenge key is not DeriveAuditKey(secret, fileID, nonce)")
	}
}

func TestBuildChallengeCapsAtObligation(t *testing.T) {
	st := store.NewMemory()
	target := Target{Addr: "a", FileID: 1, Digests: mkMessages(t, st, 1, 3)}
	ch, err := BuildChallenge(rand.New(rand.NewSource(2)), []byte("s"), &target, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.MessageIDs) != 3 {
		t.Errorf("sampled %d, want all 3", len(ch.MessageIDs))
	}
}

func TestVerifyResponseOutcomes(t *testing.T) {
	st := store.NewMemory()
	digests := mkMessages(t, st, 7, 4)
	target := Target{Addr: "a", FileID: 7, Digests: digests}
	ch, err := BuildChallenge(rand.New(rand.NewSource(3)), []byte("s"), &target, 4)
	if err != nil {
		t.Fatal(err)
	}
	honest := func() *wire.AuditResponse {
		resp := &wire.AuditResponse{FileID: 7}
		for _, id := range ch.MessageIDs {
			msg, err := st.Get(7, id)
			if err != nil {
				t.Fatal(err)
			}
			d := msg.Digest()
			resp.Proofs = append(resp.Proofs, wire.AuditProof{
				MessageID: id, Present: true, MAC: auth.AuditMAC(ch.Key, 7, id, d[:]),
			})
		}
		return resp
	}

	if tally := VerifyResponse(ch, honest(), digests); !tally.Passed() || tally.Proven != 4 {
		t.Errorf("honest response: %+v", tally)
	}

	// One admitted-missing message fails the audit.
	gapped := honest()
	gapped.Proofs[1] = wire.AuditProof{MessageID: gapped.Proofs[1].MessageID}
	if tally := VerifyResponse(ch, gapped, digests); tally.Passed() || tally.Missing != 1 || tally.Proven != 3 {
		t.Errorf("gapped response: %+v", tally)
	}

	// A bad MAC counts as forged.
	forged := honest()
	forged.Proofs[0].MAC = bytes.Repeat([]byte{0xFF}, wire.AuditMACLen)
	if tally := VerifyResponse(ch, forged, digests); tally.Passed() || tally.Forged != 1 {
		t.Errorf("forged response: %+v", tally)
	}

	// Unanswered ids count as missing; unchallenged answers as forged.
	short := &wire.AuditResponse{FileID: 7, Proofs: honest().Proofs[:2]}
	if tally := VerifyResponse(ch, short, digests); tally.Missing != 2 || tally.Proven != 2 {
		t.Errorf("short response: %+v", tally)
	}
	alien := honest()
	alien.Proofs[3].MessageID = 999999
	if tally := VerifyResponse(ch, alien, digests); tally.Forged != 1 || tally.Missing != 1 {
		t.Errorf("alien response: %+v", tally)
	}

	// A response for the wrong file proves nothing.
	wrong := honest()
	wrong.FileID = 8
	if tally := VerifyResponse(ch, wrong, digests); tally.Proven != 0 || tally.Missing != 4 {
		t.Errorf("wrong-file response: %+v", tally)
	}
}

func TestAuditorHonestPeerPasses(t *testing.T) {
	st := store.NewMemory()
	digests := mkMessages(t, st, 1, 16)
	verdicts, err := Round(context.Background(), &storeProber{stores: map[string]store.Store{"alpha": st}},
		[]byte("s"), []Target{{Addr: "alpha", FileID: 1, Digests: digests, MessageBytes: 100}}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Outcome != Pass {
		t.Fatalf("verdicts = %+v", verdicts)
	}
	v := verdicts[0]
	if v.Peer != "fp-alpha" {
		t.Errorf("peer identity = %q, want learned fp-alpha", v.Peer)
	}
	if v.Penalty != 0 || v.Attempts != 1 {
		t.Errorf("honest verdict penalty %v after %d attempts, want 0 after 1", v.Penalty, v.Attempts)
	}
	if v.Tally.Sampled != DefaultSampleSize || v.Tally.Proven != v.Tally.Sampled {
		t.Errorf("tally = %+v, want all %d default samples proven", v.Tally, DefaultSampleSize)
	}
}

// TestAuditorDropperDebited: a peer holding nothing fails, and the
// verdict carries a debit of MessageBytes per missing message. A round
// keeps no state, so the next one probes the same routine sample.
func TestAuditorDropperDebited(t *testing.T) {
	honest := store.NewMemory()
	digests := mkMessages(t, honest, 1, 64)
	prober := &storeProber{stores: map[string]store.Store{"bad": store.NewMemory()}}
	targets := []Target{{Addr: "bad", FileID: 1, Digests: digests, MessageBytes: 1000}}
	for round := 0; round < 2; round++ {
		verdicts, err := Round(context.Background(), prober, []byte("s"), targets, Options{SampleSize: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		v := verdicts[0]
		if v.Outcome != Fail || v.Tally.Sampled != 4 || v.Tally.Missing != 4 {
			t.Fatalf("round %d verdict = %+v", round, v)
		}
		if v.Penalty != 4*1000 {
			t.Errorf("round %d penalty = %v, want 4000", round, v.Penalty)
		}
	}
}

// deadProber never answers within the round-trip timeout.
type deadProber struct{ calls atomic.Int64 }

func (p *deadProber) Audit(ctx context.Context, _ string, _ []wire.AuditChallenge, timeout time.Duration) ([]*wire.AuditResponse, string, error) {
	p.calls.Add(1)
	select {
	case <-ctx.Done():
		return nil, "", ctx.Err()
	case <-time.After(timeout):
		return nil, "", context.DeadlineExceeded
	}
}

func TestAuditorTimeoutRetriesWithBackoffThenPenalizes(t *testing.T) {
	st := store.NewMemory()
	digests := mkMessages(t, st, 1, 8)
	prober := &deadProber{}
	start := time.Now()
	verdicts, err := Round(context.Background(), prober, []byte("s"),
		[]Target{{Addr: "dead", Peer: "fp-dead", FileID: 1, Digests: digests}},
		Options{Timeout: 20 * time.Millisecond, MaxRetries: 2, SampleSize: 4, PenaltyPerMessage: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	v := verdicts[0]
	if v.Outcome != Timeout || v.Peer != "fp-dead" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.Attempts != 3 || prober.calls.Load() != 3 {
		t.Errorf("attempts = %d (probe calls %d), want 3", v.Attempts, prober.calls.Load())
	}
	// Backoff between attempts: retryBackoff, then twice that, beyond
	// the three timeouts.
	if elapsed := time.Since(start); elapsed < 3*20*time.Millisecond+3*retryBackoff {
		t.Errorf("retries too fast: %v", elapsed)
	}
	// The whole sample is penalized: no response proved anything.
	if v.Tally.Missing != 4 || v.Penalty != 4*50 {
		t.Errorf("tally %+v penalty %v, want 4 missing and 200", v.Tally, v.Penalty)
	}

	// Negative MaxRetries sends exactly one probe.
	prober.calls.Store(0)
	verdicts, err = Round(context.Background(), prober, []byte("s"),
		[]Target{{Addr: "dead", FileID: 1, Digests: digests}},
		Options{Timeout: 20 * time.Millisecond, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts[0]; v.Outcome != Timeout || v.Attempts != 1 || prober.calls.Load() != 1 {
		t.Errorf("no-retry verdict %+v after %d probe calls, want one Timeout attempt", v, prober.calls.Load())
	}
}

// TestRoundProbesAddressesConcurrently: three dead holders cost one
// retry ladder between them, not one each, and every verdict still
// belongs to its own target.
func TestRoundProbesAddressesConcurrently(t *testing.T) {
	const timeout = 50 * time.Millisecond
	digests := mkMessages(t, store.NewMemory(), 1, 8)
	targets := []Target{
		{Addr: "d0", FileID: 1, Digests: digests},
		{Addr: "d1", FileID: 1, Digests: digests},
		{Addr: "d2", FileID: 1, Digests: digests},
	}
	prober := &deadProber{}
	start := time.Now()
	verdicts, err := Round(context.Background(), prober, []byte("s"), targets,
		Options{Timeout: timeout, MaxRetries: 1, SampleSize: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// One ladder: two attempts and the backoff between them.
	ladder := 2*timeout + retryBackoff
	if elapsed := time.Since(start); elapsed >= 2*ladder {
		t.Fatalf("round over 3 dead holders took %v, want under two %v retry ladders", elapsed, ladder)
	}
	for i, v := range verdicts {
		if v.Addr != targets[i].Addr || v.Outcome != Timeout || v.Attempts != 2 {
			t.Errorf("verdict %d = %+v, want a Timeout for %s after 2 attempts", i, v, targets[i].Addr)
		}
	}
	if n := prober.calls.Load(); n != 6 {
		t.Errorf("%d probe calls, want 6: two per holder", n)
	}
}

// cutProber answers honestly, except that its first probe of each
// address in cut gets through only the first challenge and then fails.
// It records the challenge count of every probe per address.
type cutProber struct {
	storeProber
	mu   sync.Mutex
	cut  map[string]bool
	sent map[string][]int
}

func (p *cutProber) Audit(ctx context.Context, addr string, chs []wire.AuditChallenge, timeout time.Duration) ([]*wire.AuditResponse, string, error) {
	resps, fp, err := p.storeProber.Audit(ctx, addr, chs, timeout)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent[addr] = append(p.sent[addr], len(chs))
	if p.cut[addr] && err == nil {
		p.cut[addr] = false
		return resps[:1], fp, errors.New("connection reset")
	}
	return resps, fp, err
}

// TestRoundProbesEachAddressOnceAndRetriesOnlyUnanswered: targets are
// grouped by address into one probe each, a failed probe is retried for
// the challenges it left unanswered only, and verdicts stay aligned
// with the targets whatever their order.
func TestRoundProbesEachAddressOnceAndRetriesOnlyUnanswered(t *testing.T) {
	a, b := store.NewMemory(), store.NewMemory()
	targets := []Target{
		{Addr: "a", FileID: 1, Digests: mkMessages(t, a, 1, 4)},
		{Addr: "b", FileID: 1, Digests: mkMessages(t, b, 1, 4)},
		{Addr: "a", FileID: 2, Digests: mkMessages(t, a, 2, 4)},
		{Addr: "a", FileID: 3, Digests: mkMessages(t, a, 3, 4)},
	}
	prober := &cutProber{
		storeProber: storeProber{stores: map[string]store.Store{"a": a, "b": b}},
		cut:         map[string]bool{"a": true},
		sent:        make(map[string][]int),
	}
	verdicts, err := Round(context.Background(), prober, []byte("s"), targets, Options{SampleSize: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := prober.sent["a"]; len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("probes of a carried %v challenges, want [3 2]: one probe, then a retry of the unanswered two", got)
	}
	if got := prober.sent["b"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("probes of b carried %v challenges, want [1]", got)
	}
	wantAttempts := []int{1, 1, 2, 2}
	for i, v := range verdicts {
		if v.Addr != targets[i].Addr || v.FileID != targets[i].FileID {
			t.Errorf("verdict %d is for %s file %d, want %s file %d", i, v.Addr, v.FileID, targets[i].Addr, targets[i].FileID)
		}
		if v.Outcome != Pass || v.Attempts != wantAttempts[i] || v.Peer != "fp-"+v.Addr {
			t.Errorf("verdict %d = %+v, want Pass after %d attempts", i, v, wantAttempts[i])
		}
	}
}

func TestRoundRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	prober := &deadProber{}
	good := Target{Addr: "a", FileID: 1, Digests: map[uint64]rlnc.Digest{0: {}}}
	if _, err := Round(ctx, nil, []byte("s"), []Target{good}, Options{}); !errors.Is(err, ErrBadConfig) {
		t.Error("missing prober accepted")
	}
	if _, err := Round(ctx, prober, nil, []Target{good}, Options{}); !errors.Is(err, ErrBadConfig) {
		t.Error("missing secret accepted")
	}
	// A bad target anywhere in the list fails the round before any
	// probe is sent.
	if _, err := Round(ctx, prober, []byte("s"), []Target{good, {FileID: 1}}, Options{}); !errors.Is(err, ErrBadTarget) {
		t.Error("target without address accepted")
	}
	if _, err := Round(ctx, prober, []byte("s"), []Target{good, {Addr: "a", FileID: 1}}, Options{}); !errors.Is(err, ErrBadTarget) {
		t.Error("target without digests accepted")
	}
	if n := prober.calls.Load(); n != 0 {
		t.Errorf("rejected rounds sent %d probes", n)
	}
}

// TestTargetForBuildsRankObligation: TargetFor, which every caller uses
// to make a target, takes a chunk's rank-r digests and message size
// from the manifest, and has nothing to check for an unminted rank or
// an out-of-range chunk.
func TestTargetForBuildsRankObligation(t *testing.T) {
	data := make([]byte, 3000)
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}
	share, err := chunk.BuildShare("f", data, plan, 100, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		if _, err := share.BatchForPeer(rank, 64); err != nil {
			t.Fatal(err)
		}
	}
	m := &share.Manifest
	tg, err := TargetFor(m, 1, 1, "peer")
	if err != nil {
		t.Fatal(err)
	}
	params, err := m.Chunks[1].Params(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := rlnc.RankDigests(m.Chunks[1].Digests, 1)
	if tg.Addr != "peer" || tg.FileID != 101 || tg.MessageBytes != params.MessageBytes() || len(tg.Digests) != len(want) {
		t.Fatalf("target = {%s %d %d bytes, %d digests}, want {peer 101 %d bytes, %d digests}",
			tg.Addr, tg.FileID, tg.MessageBytes, len(tg.Digests), params.MessageBytes(), len(want))
	}
	for id, d := range want {
		if tg.Digests[id] != d {
			t.Fatalf("digest of id %#x missing from the target", id)
		}
	}
	for _, c := range []struct{ chunk, rank int }{{1, 2}, {-1, 0}, {3, 0}} {
		tg, err := TargetFor(m, c.chunk, c.rank, "peer")
		if err != nil || len(tg.Digests) != 0 {
			t.Errorf("chunk %d rank %d: %d digests, err %v; want none", c.chunk, c.rank, len(tg.Digests), err)
		}
	}
}
