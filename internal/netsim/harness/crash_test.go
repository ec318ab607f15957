package harness

// Crash-recovery scenario: a storage peer's machine power-cuts in the
// middle of a dissemination, reboots, and rejoins the network with
// everything it acknowledged intact — the stored messages pass a keyed
// spot-check audit byte-for-byte, and the Eq. (2) receipt standings it
// had checkpointed survive. The disk is an fsx.ErrFS, so the power cut
// lands at a deterministic filesystem operation and replays exactly.

import (
	"bytes"
	"testing"

	"asymshare/internal/audit"
	"asymshare/internal/client"
	"asymshare/internal/fsx"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

func TestPeerCrashMidDisseminationRecovers(t *testing.T) {
	seed := Seed(t, 11)
	ctx := testCtx(t)
	c := Start(t, seed, 1) // one memory peer: the counterpart earning standing
	efs := fsx.NewErrFS(seed)
	dp := c.StartDurablePeer(efs, "durable", 42, c.Owner.Public())

	// Encode one generation; batch A carries full rank (k messages with
	// an invertible coefficient matrix), so the durable peer alone can
	// serve a complete decode after it recovers.
	const fileID, k = 46, 8
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), k, 256, 2048)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rlnc.NewEncoder(params, fileID, Secret(), gen46Data())
	if err != nil {
		t.Fatal(err)
	}
	batchA, err := enc.BatchForPeer(0, k)
	if err != nil {
		t.Fatal(err)
	}
	batchB, err := enc.BatchForPeer(1, k)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]rlnc.Digest) // everything ever sent
	ackedDigests := make(map[uint64]rlnc.Digest)
	for _, m := range batchA {
		digests[m.MessageID] = m.Digest()
		ackedDigests[m.MessageID] = m.Digest()
	}
	for _, m := range batchB {
		digests[m.MessageID] = m.Digest()
	}

	// Batch A lands fully: every PUT was acked, and the peer acks only
	// after the journal append is fsynced.
	cl := c.UserClient(client.Options{})
	if err := cl.Disseminate(ctx, dp.Addr, batchA); err != nil {
		t.Fatalf("disseminate batch A: %v", err)
	}

	// The peer's user reports receipts from the other peer; the standing
	// is checkpointed — the periodic tick, made explicit.
	counterpart := c.Peers[0].ID.Fingerprint()
	if err := cl.SendFeedback(ctx, dp.Addr, map[string]uint64{counterpart: 800}); err != nil {
		t.Fatal(err)
	}
	wantStanding := dp.Node.Ledger().Received(counterpart)
	if err := dp.Node.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// Power-cut the disk a few filesystem operations into batch B's
	// journal appends. The peer drops the connection on the failed PUT,
	// so dissemination errors out part-way.
	efs.CrashAtOp(efs.Ops() + 3)
	if err := cl.Disseminate(ctx, dp.Addr, batchB); err == nil {
		t.Fatal("dissemination succeeded past a dead disk")
	}
	if !efs.Crashed() {
		t.Fatal("crash point never fired")
	}

	// Reboot. Journal recovery must keep every acked message and never
	// quarantine on a pure power cut — a torn tail is truncated in place.
	if err := dp.Restart(c); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	rec := dp.Store.Recovery()
	if rec.QuarantinedFiles != 0 {
		t.Fatalf("power cut quarantined files: %+v", rec)
	}
	for id, want := range ackedDigests {
		msg, err := dp.Store.Get(fileID, id)
		if err != nil {
			t.Fatalf("acked message %d lost in crash: %v", id, err)
		}
		if msg.Digest() != want {
			t.Fatalf("acked message %d corrupted in crash", id)
		}
	}

	// The recovered peer passes a keyed spot-check audit over the acked
	// digest set.
	verdicts, err := audit.Round(ctx, cl, Secret(),
		[]audit.Target{{Addr: dp.Addr, FileID: fileID, Digests: ackedDigests}},
		audit.Options{PenaltyPerMessage: 10, SampleSize: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts[0]; v.Outcome != audit.Pass {
		t.Fatalf("post-crash audit verdict = %+v", v)
	}

	// The checkpointed standing survived the crash exactly.
	lrec := dp.Node.LedgerRecovery()
	if !lrec.Loaded || lrec.CorruptSlots != 0 {
		t.Fatalf("ledger recovery = %+v", lrec)
	}
	if got := dp.Node.Ledger().Received(counterpart); got != wantStanding {
		t.Fatalf("post-crash standing = %v, want %v", got, wantStanding)
	}

	// And the peer still serves a full decode on its own. Any batch B
	// messages acked before the cut also survived, so the union digest
	// set verifies every stored message.
	data, stats, err := cl.FetchGeneration(ctx, []string{dp.Addr}, params, fileID, Secret(), digests)
	if err != nil {
		t.Fatalf("fetch from recovered peer: %v", err)
	}
	if !bytes.Equal(data, gen46Data()) {
		t.Fatal("decoded bytes differ from original")
	}
	if stats.Rejected != 0 {
		t.Fatalf("recovered peer served %d messages failing digest check", stats.Rejected)
	}
}

// gen46Data is the deterministic payload for the crash scenario.
func gen46Data() []byte {
	return bytes.Repeat([]byte("asymmetric channel "), 2048/19+1)[:2048]
}
