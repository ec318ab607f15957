package sim

import (
	"testing"

	"asymshare/internal/trace"
)

// auditNet is a symmetric always-on network of 3 honest peers plus one
// that silently dropped everything it agreed to store.
func auditNet(dropper bool, auditEvery int, messageKbits float64) Config {
	return Config{
		Peers: []PeerConfig{
			{Name: "a", Upload: trace.Const(1000), Demand: trace.Always{}},
			{Name: "b", Upload: trace.Const(1000), Demand: trace.Always{}},
			{Name: "c", Upload: trace.Const(1000), Demand: trace.Always{}},
			{Name: "leech", Upload: trace.Const(1000), Demand: trace.Always{}, DropsStored: dropper},
		},
		Slots:         600,
		InitialCredit: 1,
		AuditEvery:    auditEvery,
		MessageKbits:  messageKbits,
	}
}

// fromOthers is user i's total traffic received from peers in the
// first n other than itself: the aggregation gain the system exists
// to provide, and what audits take away from free-riders.
func fromOthers(r *Result, i, n int) float64 {
	var sum float64
	for j := 0; j < n; j++ {
		if j != i {
			sum += r.Exchanged[j][i]
		}
	}
	return sum
}

// TestAuditCollapsesDropperAllocation is the storage free-rider
// scenario: a chunk-dropping peer keeps uploading (so it keeps earning
// receipt credit), but periodic retention audits debit it in every
// other user's ledger faster than it can re-earn, and its allocation
// from the rest of the network collapses, while the honest peers are
// unaffected. The dropper keeps only what it can grant itself from its
// own upload, i.e. it loses exactly the aggregation benefit the system
// exists to provide. It holds for the fluid split and for whole
// messages.
func TestAuditCollapsesDropperAllocation(t *testing.T) {
	for _, msg := range []float64{0, 256} {
		// Baseline: audits off. The dropper is indistinguishable from
		// an honest uploader and draws a full share from the others.
		base, err := Run(auditNet(true, 0, msg))
		if err != nil {
			t.Fatal(err)
		}
		baseHonest, baseLeech := fromOthers(base, 0, 4), fromOthers(base, 3, 4)
		if baseLeech < 0.8*baseHonest {
			t.Fatalf("message %v: without audits the dropper should blend in: honest %.0f vs leech %.0f",
				msg, baseHonest, baseLeech)
		}
		for i, d := range base.AuditDebits {
			if d != 0 {
				t.Fatalf("message %v: audits disabled but peer %d debited %v", msg, i, d)
			}
		}

		// Audits on: every 5 slots each user spot-checks the others;
		// the dropper fails all of them.
		audited, err := Run(auditNet(true, 5, msg))
		if err != nil {
			t.Fatal(err)
		}
		honest, leech := fromOthers(audited, 0, 4), fromOthers(audited, 3, 4)
		t.Logf("message %v: leech %.0f vs honest %.0f kbits from others", msg, leech, honest)
		if leech > 0.3*honest {
			t.Errorf("message %v: dropper allocation did not collapse: honest %.0f vs leech %.0f kbits from others",
				msg, honest, leech)
		}
		if audited.AuditDebits[3] == 0 {
			t.Errorf("message %v: dropper audit debits unrecorded: %v", msg, audited.AuditDebits)
		}
		// Honest peers are unaffected where it matters: the traffic
		// they grant each other. Once the dropper's weight is slashed,
		// each honest peer redistributes the dropper's former share
		// among the remaining honest requesters, so honest-to-honest
		// traffic rises above baseline. (Total from-others drops only
		// because the dropper withdraws its upload into self-service:
		// bandwidth that in reality was phantom, since it no longer
		// holds the data it would be serving.)
		for i := 0; i < 3; i++ {
			if audited.AuditDebits[i] != 0 {
				t.Errorf("message %v: honest peer %s debited: %v", msg, audited.Names[i], audited.AuditDebits)
			}
			if got, want := fromOthers(audited, i, 3), fromOthers(base, i, 3); got < want {
				t.Errorf("message %v: honest peer %s harmed by audits: %.0f honest-to-honest kbits vs baseline %.0f",
					msg, audited.Names[i], got, want)
			}
		}
	}
}

// TestAuditHonestNetworkUnaffected: with audits enabled and everyone
// honest, no debits, and the allocation matches the audit-free run
// exactly.
func TestAuditHonestNetworkUnaffected(t *testing.T) {
	for _, msg := range []float64{0, 256} {
		base, err := Run(auditNet(false, 0, msg))
		if err != nil {
			t.Fatal(err)
		}
		audited, err := Run(auditNet(false, 5, msg))
		if err != nil {
			t.Fatal(err)
		}
		for i := range audited.Names {
			if audited.AuditDebits[i] != 0 {
				t.Errorf("message %v: honest peer %s penalized: %v", msg, audited.Names[i], audited.AuditDebits)
			}
			for j := range audited.Names {
				if audited.Exchanged[j][i] != base.Exchanged[j][i] {
					t.Errorf("message %v: %s received %v from %s with audits vs %v without",
						msg, audited.Names[i], audited.Exchanged[j][i], audited.Names[j], base.Exchanged[j][i])
				}
			}
		}
	}
}
