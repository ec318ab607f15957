package repair

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/contract"
	"asymshare/internal/fsx"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// The batch-rank layout helpers, under the names these tests use.
var (
	digestsForRank = rlnc.RankDigests
	maxMintedRank  = rlnc.MaxBatchRank
)

func testPlan() chunk.Plan {
	return chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}
}

func testData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return data
}

// fakeSwarm is an in-process stand-in for client.Client + a fleet of
// peer.Nodes: it stores disseminated messages per address, answers
// keyed audits honestly from those stores, and grants contracts with
// optional per-peer capacity limits. Kill an address to simulate churn.
type fakeSwarm struct {
	mu        sync.Mutex
	clock     func() time.Time
	stores    map[string]store.Store
	dead      map[string]bool
	capacity  map[string]int64 // 0 = unlimited
	used      map[string]int64
	contracts map[string]map[uint64]int64 // addr -> contract id -> bytes
	expiries  map[uint64]time.Time
	upBytes   int64
	credits   map[string]uint64
	debits    map[string]uint64
}

func newFakeSwarm(clock func() time.Time) *fakeSwarm {
	return &fakeSwarm{
		clock:     clock,
		stores:    make(map[string]store.Store),
		dead:      make(map[string]bool),
		capacity:  make(map[string]int64),
		used:      make(map[string]int64),
		contracts: make(map[string]map[uint64]int64),
		expiries:  make(map[uint64]time.Time),
		credits:   make(map[string]uint64),
		debits:    make(map[string]uint64),
	}
}

func (f *fakeSwarm) addPeer(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores[addr] = store.NewMemory()
	f.contracts[addr] = make(map[uint64]int64)
}

func (f *fakeSwarm) kill(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead[addr] = true
}

func (f *fakeSwarm) Disseminate(_ context.Context, addr string, msgs []*rlnc.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[addr] {
		return errors.New("dial: connection refused")
	}
	st, ok := f.stores[addr]
	if !ok {
		return errors.New("no such peer")
	}
	for _, m := range msgs {
		if err := st.Put(m); err != nil {
			return err
		}
		f.upBytes += int64(len(m.Payload) + rlnc.MessageHeaderBytes)
	}
	return nil
}

func (f *fakeSwarm) Audit(_ context.Context, addr string, ch wire.AuditChallenge) (*wire.AuditResponse, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[addr] {
		return nil, "", errors.New("dial: connection refused")
	}
	st, ok := f.stores[addr]
	if !ok {
		return nil, "", errors.New("no such peer")
	}
	resp := &wire.AuditResponse{FileID: ch.FileID}
	for _, id := range ch.MessageIDs {
		proof := wire.AuditProof{MessageID: id}
		if msg, err := st.Get(ch.FileID, id); err == nil {
			d := msg.Digest()
			proof.Present = true
			proof.MAC = auth.AuditMAC(ch.Key, ch.FileID, id, d[:])
		}
		resp.Proofs = append(resp.Proofs, proof)
	}
	return resp, "fp-" + addr, nil
}

func (f *fakeSwarm) ProposeContract(_ context.Context, addr string, p wire.ContractPropose) (wire.ContractGrant, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[addr] {
		return wire.ContractGrant{}, "", errors.New("dial: connection refused")
	}
	book, ok := f.contracts[addr]
	if !ok {
		return wire.ContractGrant{}, "", errors.New("no such peer")
	}
	if cap := f.capacity[addr]; cap > 0 && f.used[addr]+int64(p.Bytes) > cap {
		return wire.ContractGrant{}, "", &wire.RemoteError{
			Code: wire.CodeOverCapacity, Reason: "over advertised capacity"}
	}
	book[p.ContractID] = int64(p.Bytes)
	f.used[addr] += int64(p.Bytes)
	exp := f.clock().Add(time.Duration(p.TTLSeconds) * time.Second)
	f.expiries[p.ContractID] = exp
	return wire.ContractGrant{ContractID: p.ContractID, ExpiresUnix: exp.Unix()}, "fp-" + addr, nil
}

func (f *fakeSwarm) RenewContract(_ context.Context, addr string, r wire.ContractRenew) (wire.ContractGrant, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[addr] {
		return wire.ContractGrant{}, errors.New("dial: connection refused")
	}
	book := f.contracts[addr]
	if _, ok := book[r.ContractID]; !ok {
		return wire.ContractGrant{}, &wire.RemoteError{
			Code: wire.CodeUnknownContract, Reason: "unknown contract"}
	}
	exp := f.clock().Add(time.Duration(r.TTLSeconds) * time.Second)
	f.expiries[r.ContractID] = exp
	return wire.ContractGrant{ContractID: r.ContractID, ExpiresUnix: exp.Unix()}, nil
}

func (f *fakeSwarm) ReleaseContract(_ context.Context, addr string, r wire.ContractRelease) (wire.ContractGrant, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[addr] {
		return wire.ContractGrant{}, errors.New("dial: connection refused")
	}
	if book := f.contracts[addr]; book != nil {
		f.used[addr] -= book[r.ContractID]
		delete(book, r.ContractID)
	}
	return wire.ContractGrant{ContractID: r.ContractID}, nil
}

func (f *fakeSwarm) SendFeedback(_ context.Context, _ string, received map[string]uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, v := range received {
		f.credits[k] += v
	}
	return nil
}

func (f *fakeSwarm) SendAuditVerdicts(_ context.Context, _ string, debits map[string]uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, v := range debits {
		f.debits[k] += v
	}
	return nil
}

// fixture builds a share, seeds `holders` peers (one batch rank each,
// all chunks) into the swarm, and records the matching holdings.
type fixture struct {
	data    []byte
	share   *chunk.Share
	swarm   *fakeSwarm
	set     *contract.Set
	eng     *Engine
	nextID  uint64
	holders []string
}

func newFixture(t *testing.T, dataLen, holders int, clock func() time.Time, expires time.Time) *fixture {
	t.Helper()
	data := testData(dataLen)
	share, err := chunk.BuildShare("f", data, testPlan(), 100, []byte("test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{
		data:  data,
		share: share,
		swarm: newFakeSwarm(clock),
		set:   contract.NewSet(),
	}
	fx.eng = &Engine{Manifest: &share.Manifest, Secret: share.Secret}
	pieces := chunk.Split(data, share.Manifest.Plan.ChunkSize)
	for r := 0; r < holders; r++ {
		addr := string(rune('a'+r)) + ":1"
		fx.swarm.addPeer(addr)
		fx.holders = append(fx.holders, addr)
		for ci := range share.Manifest.Chunks {
			fx.nextID++
			batch, err := fx.eng.Mint(Task{Addr: addr, Chunk: ci, Rank: r, Fresh: true}, pieces[ci])
			if err != nil {
				t.Fatal(err)
			}
			if err := fx.swarm.Disseminate(context.Background(), addr, batch); err != nil {
				t.Fatal(err)
			}
			var bytes int64
			for _, m := range batch {
				bytes += int64(len(m.Payload) + rlnc.MessageHeaderBytes)
			}
			err = fx.set.Add(contract.Holding{
				ContractID: fx.nextID,
				Addr:       addr,
				Peer:       "fp-" + addr,
				Chunk:      ci,
				Rank:       r,
				Messages:   len(batch),
				Bytes:      bytes,
				Expires:    expires,
			})
			if err != nil {
				t.Fatal(err)
			}
			fx.swarm.mu.Lock()
			fx.swarm.contracts[addr][fx.nextID] = bytes
			fx.swarm.expiries[fx.nextID] = expires
			fx.swarm.mu.Unlock()
		}
	}
	fx.swarm.mu.Lock()
	fx.swarm.upBytes = 0 // seeding is not repair traffic
	fx.swarm.mu.Unlock()
	return fx
}

func (fx *fixture) daemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	cfg.Manifest = &fx.share.Manifest
	cfg.Secret = fx.share.Secret
	cfg.Data = fx.data
	cfg.Contracts = fx.set
	cfg.Client = fx.swarm
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEngineMintFreshIsDeterministicAndRecordsDigests(t *testing.T) {
	data := testData(1024)
	share, err := chunk.BuildShare("f", data, testPlan(), 7, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Manifest: &share.Manifest, Secret: share.Secret}
	pieces := chunk.Split(data, share.Manifest.Plan.ChunkSize)

	batch, err := eng.Mint(Task{Chunk: 0, Rank: 3, Fresh: true}, pieces[0])
	if err != nil {
		t.Fatal(err)
	}
	k := share.Manifest.Chunks[0].K
	if len(batch) != k {
		t.Fatalf("minted %d messages, want k=%d", len(batch), k)
	}
	digests := digestsForRank(share.Manifest.Chunks[0].Digests, 3)
	if len(digests) != k {
		t.Fatalf("recorded %d fresh digests, want %d", len(digests), k)
	}
	for _, m := range batch {
		if digests[m.MessageID] != m.Digest() {
			t.Fatalf("digest mismatch for message %d", m.MessageID)
		}
	}
	// Determinism: re-minting the same rank yields the same batch, so a
	// crashed repair can be replayed without new manifest state.
	again, err := eng.Mint(Task{Chunk: 0, Rank: 3}, pieces[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if again[i].MessageID != batch[i].MessageID || again[i].Digest() != batch[i].Digest() {
			t.Fatalf("re-mint diverged at message %d", i)
		}
	}
	if got := maxMintedRank(share.Manifest.Chunks[0].Digests); got != 3 {
		t.Fatalf("maxMintedRank = %d, want 3", got)
	}
}

// TestDaemonLifecycle pins satellite requirements: clean Start/Close
// under -race with no goroutine leak, Close idempotent, Start-after-
// Close refused.
func TestDaemonLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	fx := newFixture(t, 1024, 2, time.Now, time.Now().Add(time.Hour))
	d := fx.daemon(t, Config{Target: 2, Interval: 5 * time.Millisecond})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Error("second Start did not error")
	}
	// Let a few ticker rounds race against Close.
	time.Sleep(25 * time.Millisecond)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := d.Start(); err == nil {
		t.Error("Start after Close did not error")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestDaemonReplacesDeadPeer is the core proactive-repair flow: a
// churned holder is detected by the liveness probe, its holding
// dropped, and a fresh batch at a never-used rank is negotiated onto a
// replacement peer — restoring the watermark before decodability is
// ever threatened.
func TestDaemonReplacesDeadPeer(t *testing.T) {
	now := time.Unix(3_000_000, 0)
	clock := func() time.Time { return now }
	fx := newFixture(t, 2048, 3, clock, now.Add(time.Hour))
	spare := "spare:1"
	fx.swarm.addPeer(spare)
	d := fx.daemon(t, Config{
		Target:      3,
		TTL:         time.Hour,
		Clock:       clock,
		OwnPeerAddr: "own:1",
		Peers:       func(context.Context, int) []string { return []string{spare} },
	})

	fx.swarm.kill(fx.holders[1])
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chunks := len(fx.share.Manifest.Chunks)
	if rep.Dead != chunks {
		t.Errorf("dead = %d, want %d (one holding per chunk)", rep.Dead, chunks)
	}
	if rep.Replacements != chunks {
		t.Errorf("replacements = %d, want %d", rep.Replacements, chunks)
	}
	if rep.MinWatermark != 3.0 {
		t.Errorf("min watermark = %v, want 3.0 after repair", rep.MinWatermark)
	}
	for ci := range fx.share.Manifest.Chunks {
		var onSpare *contract.Holding
		for _, h := range fx.set.ForChunk(ci) {
			if h.Addr == fx.holders[1] {
				t.Errorf("chunk %d: dead holding survived", ci)
			}
			if h.Addr == spare {
				hh := h
				onSpare = &hh
			}
		}
		if onSpare == nil {
			t.Fatalf("chunk %d: no replacement holding", ci)
		}
		// Fresh rank: strictly past every seeded rank (0..2).
		if onSpare.Rank != 3 {
			t.Errorf("chunk %d: replacement rank = %d, want 3", ci, onSpare.Rank)
		}
		// The replacement batch is stored and its digests are pinned in
		// the manifest, so a cold fetch will authenticate it.
		info := fx.share.Manifest.Chunks[ci]
		if got := fx.swarm.stores[spare].Count(info.FileID); got != info.K {
			t.Errorf("chunk %d: spare stores %d messages, want %d", ci, got, info.K)
		}
		if got := len(digestsForRank(info.Digests, onSpare.Rank)); got != info.K {
			t.Errorf("chunk %d: %d fresh digests in manifest, want %d", ci, got, info.K)
		}
	}
	// Honored obligations were credited; the dead peer earned nothing.
	if fx.swarm.credits["fp-"+fx.holders[0]] == 0 || fx.swarm.credits["fp-"+fx.holders[2]] == 0 {
		t.Error("surviving holders not credited")
	}
	if fx.swarm.credits["fp-"+fx.holders[1]] != 0 {
		t.Error("dead holder credited")
	}
}

// TestDaemonDropsFailedAudit: a holder that answers but cannot prove
// retention (forged payload) is treated like a lost replica and debited.
func TestDaemonDropsFailedAudit(t *testing.T) {
	now := time.Unix(3_000_000, 0)
	clock := func() time.Time { return now }
	fx := newFixture(t, 1024, 2, clock, now.Add(time.Hour))
	spare := "spare:1"
	fx.swarm.addPeer(spare)

	// Forge every message the second holder stores.
	bad := fx.holders[1]
	info := fx.share.Manifest.Chunks[0]
	msgs, err := fx.swarm.stores[bad].Messages(info.FileID)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		forged := *m
		forged.Payload = append([]byte(nil), m.Payload...)
		forged.Payload[0] ^= 0xff
		if err := fx.swarm.stores[bad].Put(&forged); err != nil {
			t.Fatal(err)
		}
	}

	d := fx.daemon(t, Config{
		Target:      2,
		TTL:         time.Hour,
		Clock:       clock,
		OwnPeerAddr: "own:1",
		Peers:       func(context.Context, int) []string { return []string{spare} },
	})
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Errorf("failed = %d, want 1", rep.Failed)
	}
	if rep.Replacements != 1 {
		t.Errorf("replacements = %d, want 1", rep.Replacements)
	}
	if fx.set.Has(bad, 0) {
		t.Error("failed holder still holds the chunk")
	}
	if fx.swarm.debits["fp-"+bad] == 0 {
		t.Error("failed holder not debited")
	}
}

// TestDaemonRenewsExpiring: healthy contracts inside the RenewAhead
// window are extended rather than replaced.
func TestDaemonRenewsExpiring(t *testing.T) {
	now := time.Unix(3_000_000, 0)
	clock := func() time.Time { return now }
	fx := newFixture(t, 1024, 2, clock, now.Add(time.Minute))
	d := fx.daemon(t, Config{
		Target:     2,
		TTL:        time.Hour,
		RenewAhead: 10 * time.Minute,
		Clock:      clock,
	})
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Renewed != 2 {
		t.Errorf("renewed = %d, want 2", rep.Renewed)
	}
	if rep.Replacements != 0 {
		t.Errorf("replacements = %d, want 0", rep.Replacements)
	}
	for _, h := range fx.set.Holdings() {
		if h.Expires.Sub(now) < 30*time.Minute {
			t.Errorf("holding %d not renewed: expires %v", h.ContractID, h.Expires)
		}
	}
}

// TestDaemonSkipsOverCapacityCandidate: a refusal (typed over-capacity
// wire error) moves placement to the next candidate instead of failing
// the round.
func TestDaemonSkipsOverCapacityCandidate(t *testing.T) {
	now := time.Unix(3_000_000, 0)
	clock := func() time.Time { return now }
	fx := newFixture(t, 1024, 2, clock, now.Add(time.Hour))
	full, roomy := "full:1", "roomy:1"
	fx.swarm.addPeer(full)
	fx.swarm.addPeer(roomy)
	fx.swarm.mu.Lock()
	fx.swarm.capacity[full] = 1 // can't hold a batch
	fx.swarm.mu.Unlock()

	fx.swarm.kill(fx.holders[0])
	d := fx.daemon(t, Config{
		Target: 2,
		TTL:    time.Hour,
		Clock:  clock,
		Peers:  func(context.Context, int) []string { return []string{full, roomy} },
	})
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements != 1 {
		t.Fatalf("replacements = %d, want 1", rep.Replacements)
	}
	if rep.Errors == 0 {
		t.Error("over-capacity refusal not counted as an error")
	}
	if !fx.set.Has(roomy, 0) {
		t.Error("replacement did not land on the peer with room")
	}
	if fx.set.Has(full, 0) {
		t.Error("replacement landed on the full peer")
	}
}

// TestDaemonWatermarkAfterJournalRecovery pins the crash-recovery
// requirement: holdings journaled before a kill -9 replay into a fresh
// Set, and the daemon recomputes the exact rank-margin watermark from
// that recovered state alone — no network traffic, no owner handholding.
func TestDaemonWatermarkAfterJournalRecovery(t *testing.T) {
	now := time.Unix(3_000_000, 0)
	clock := func() time.Time { return now }
	efs := fsx.NewErrFS(5)

	data := testData(2048)
	share, err := chunk.BuildShare("f", data, testPlan(), 100, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	k := share.Manifest.Chunks[0].K

	set, _, err := contract.OpenSet(efs, "owner/holdings.j")
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0: two live holdings. Chunk 1: one live, one already lapsed
	// by recovery time, plus one dropped before the crash.
	live := now.Add(time.Hour)
	lapsed := now.Add(-time.Minute)
	holdings := []contract.Holding{
		{ContractID: 1, Addr: "a:1", Chunk: 0, Rank: 0, Messages: k, Expires: live},
		{ContractID: 2, Addr: "b:1", Chunk: 0, Rank: 1, Messages: k, Expires: live},
		{ContractID: 3, Addr: "a:1", Chunk: 1, Rank: 0, Messages: k, Expires: live},
		{ContractID: 4, Addr: "b:1", Chunk: 1, Rank: 1, Messages: k, Expires: lapsed},
		{ContractID: 5, Addr: "c:1", Chunk: 1, Rank: 2, Messages: k, Expires: live},
	}
	for _, h := range holdings {
		if err := set.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Drop(5); err != nil {
		t.Fatal(err)
	}

	efs.Reboot() // kill -9: no Close, only fsynced bytes survive

	recovered, rec, err := contract.OpenSet(efs, "owner/holdings.j")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 6 || rec.Active != 4 {
		t.Fatalf("recovery = %+v, want 6 records / 4 active", rec)
	}
	d, err := New(Config{
		Manifest:  &share.Manifest,
		Secret:    share.Secret,
		Data:      data,
		Contracts: recovered,
		Client:    newFakeSwarm(clock),
		Clock:     clock,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	marks := d.Watermarks()
	if len(marks) != 2 {
		t.Fatalf("got %d watermarks, want 2", len(marks))
	}
	if marks[0] != 2.0 {
		t.Errorf("chunk 0 watermark = %v, want 2.0", marks[0])
	}
	// Contract 4 lapsed and contract 5 was dropped pre-crash: only one
	// replica survives recovery.
	if marks[1] != 1.0 {
		t.Errorf("chunk 1 watermark = %v, want 1.0", marks[1])
	}
}

// TestDaemonExpiredHoldingsReplaced: contract expiry alone (no churn,
// no audit failure) triggers replacement.
func TestDaemonExpiredHoldingsReplaced(t *testing.T) {
	now := time.Unix(3_000_000, 0)
	clock := func() time.Time { return now }
	fx := newFixture(t, 1024, 2, clock, now.Add(-time.Minute)) // already lapsed
	spare1, spare2 := "s1:1", "s2:1"
	fx.swarm.addPeer(spare1)
	fx.swarm.addPeer(spare2)
	d := fx.daemon(t, Config{
		Target: 2,
		TTL:    time.Hour,
		Clock:  clock,
		Peers:  func(context.Context, int) []string { return []string{spare1, spare2} },
	})
	rep, err := d.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired != 2 {
		t.Errorf("expired = %d, want 2", rep.Expired)
	}
	if rep.Replacements != 2 {
		t.Errorf("replacements = %d, want 2", rep.Replacements)
	}
	if rep.MinWatermark != 2.0 {
		t.Errorf("min watermark = %v, want 2.0", rep.MinWatermark)
	}
}
