package fairshare

import (
	"os"
	"path/filepath"
	"testing"

	"asymshare/internal/fsx"
)

// writeSlot puts raw bytes where RecoverLedger will look for them.
func writeSlot(t *testing.T, fsys fsx.FS, path string, data []byte) {
	t.Helper()
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsx.WriteFileAtomic(fsys, path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerJSONRoundTrip(t *testing.T) {
	l := NewLedger(0.25)
	l.Credit("alice", 100)
	l.Credit("bob", 7.5)

	data, err := l.marshal(3)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.V != ledgerDocVersion || doc.Gen != 3 || doc.Bound != DefaultLedgerBound {
		t.Errorf("document header = v%d gen %d bound %d", doc.V, doc.Gen, doc.Bound)
	}
	got, err := ledgerFromDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Received("alice"); !almostEqual(v, 100.25) {
		t.Errorf("alice = %v", v)
	}
	if v := got.Received("bob"); !almostEqual(v, 7.75) {
		t.Errorf("bob = %v", v)
	}
	// Unseen counterpart still gets the preserved initial credit.
	if v := got.Received("carol"); !almostEqual(v, 0.25) {
		t.Errorf("carol = %v", v)
	}
}

// TestLoadLedgerJSONErrors: a slot holding a document the ledger must
// not trust is counted corrupt and recovery falls back to a fresh
// ledger — it is never half-loaded.
func TestLoadLedgerJSONErrors(t *testing.T) {
	for name, doc := range map[string]string{
		"broken JSON":     `{broken`,
		"negative entry":  `{"initial":0,"received":{"x":-5}}`,
		"negative tail":   `{"v":2,"initial":0,"received":{"x":5},"tail_sum":-1}`,
		"unknown version": `{"v":1,"initial":0,"received":{"x":5}}`,
		"future version":  `{"v":3,"initial":0,"received":{"x":5},"gen":9}`,
	} {
		efs := fsx.NewErrFS(1)
		writeSlot(t, efs, "/d/ledger", []byte(doc))
		got, rec, err := RecoverLedger(efs, "/d/ledger", 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Loaded || rec.CorruptSlots != 1 {
			t.Errorf("%s: recovery = %+v, want refused and counted corrupt", name, rec)
		}
		if got.Received("x") != 0.5 || got.Total() != 0 {
			t.Errorf("%s: refused document leaked into the ledger: x = %v", name, got.Received("x"))
		}
	}
}

// TestLoadLedgerFileMissingGivesFresh: first boot, nothing on disk.
func TestLoadLedgerFileMissingGivesFresh(t *testing.T) {
	got, rec, err := RecoverLedger(nil, filepath.Join(t.TempDir(), "nope.json"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Loaded || rec.Gen != 0 || rec.CorruptSlots != 0 {
		t.Errorf("first boot recovery = %+v", rec)
	}
	if v := got.Received("anyone"); v != 0.5 {
		t.Errorf("fresh ledger initial = %v", v)
	}
	if got.Bound() != DefaultLedgerBound {
		t.Errorf("fresh ledger bound = %d, want %d", got.Bound(), DefaultLedgerBound)
	}
}

// TestRecoverBookMigratesLegacyCheckpoint: an upgraded peer finds the
// version-0 (exact pairwise) checkpoint its predecessor wrote. Every
// standing loads, the next checkpoint is a version-2 document one
// generation on, and a power cut anywhere inside that first write
// leaves one of the two recoverable.
func TestRecoverBookMigratesLegacyCheckpoint(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "ledger_v0.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[ID]float64{"alice": 100.000001, "bob": 40.000001, "carol": 0}
	check := func(label string, l *Ledger) {
		t.Helper()
		for id, v := range want {
			if got := l.Received(id); got != v {
				t.Errorf("%s: %s = %v, want %v", label, id, got, v)
			}
		}
		if got := l.Received("stranger"); got != DefaultInitialCredit {
			t.Errorf("%s: stranger = %v, want the stored initial credit", label, got)
		}
	}
	upgrade := func(efs *fsx.ErrFS) error {
		l, rec, err := RecoverLedger(efs, "/d/ledger", 0.5)
		if err != nil {
			return err
		}
		c := NewCheckpointer(CheckpointConfig{Ledger: l, Path: "/d/ledger", FS: efs, Gen: rec.Gen})
		return c.Checkpoint()
	}

	efs := fsx.NewErrFS(1)
	writeSlot(t, efs, "/d/ledger", fixture) // generation 7: the odd slot
	base := efs.Ops()
	old, rec, err := RecoverLedger(efs, "/d/ledger", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Loaded || rec.Gen != 7 || rec.CorruptSlots != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	check("v0", old)
	if sum, n := old.Tail(); sum != 0 || n != 0 || old.Bound() != DefaultLedgerBound {
		t.Errorf("v0 load: tail (%v, %d) bound %d", sum, n, old.Bound())
	}

	if err := upgrade(efs); err != nil {
		t.Fatal(err)
	}
	perUpgrade := efs.Ops() - base
	data, err := fsx.ReadFile(efs, "/d/ledger.1")
	if err != nil {
		t.Fatalf("generation 8 not in the even slot: %v", err)
	}
	doc, err := parseDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.V != ledgerDocVersion || doc.Gen != 8 {
		t.Errorf("first checkpoint after upgrade = v%d gen %d, want v%d gen 8", doc.V, doc.Gen, ledgerDocVersion)
	}
	got, rec, err := RecoverLedger(efs, "/d/ledger", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Loaded || rec.Gen != 8 || rec.CorruptSlots != 0 {
		t.Fatalf("recovery after upgrade = %+v", rec)
	}
	check("v2", got)

	for n := 1; n <= perUpgrade; n++ {
		efs := fsx.NewErrFS(int64(n))
		writeSlot(t, efs, "/d/ledger", fixture)
		efs.CrashAtOp(efs.Ops() + n)
		upgrade(efs) // fails at some point; error content irrelevant
		efs.Reboot()
		got, rec, err := RecoverLedger(efs, "/d/ledger", 0.5)
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if !rec.Loaded || rec.CorruptSlots != 0 || (rec.Gen != 7 && rec.Gen != 8) {
			t.Fatalf("crash@%d: recovery = %+v", n, rec)
		}
		check("crash", got)
	}
}
