package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresTarget(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no target accepted")
	}
	if err := run([]string{"fig5a", "extra"}, &out); err == nil {
		t.Error("two targets accepted")
	}
	if err := run([]string{"nope"}, &out); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestFig1Target(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fig1", "dialup-upload@28kbps", "cable-download@3Mbps", "headline"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestTable1Target(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "GF(2^32)\t32\t16\t8\t4\t2\t1") {
		t.Errorf("table1 row wrong:\n%s", out.String())
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestQuickSimTargets compares each deterministic -quick target's
// output byte for byte with its golden file, so a change to the slot
// loop or a figure that moves any number shows here. Regenerate with
// go test ./cmd/paperfig -run TestQuickSimTargets -update.
func TestQuickSimTargets(t *testing.T) {
	for _, target := range []string{
		"fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b",
		"ablation-liar", "ablation-tft", "ablation-decay", "robustness", "churn", "quantization",
	} {
		var out bytes.Buffer
		if err := run([]string{"-quick", target}, &out); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		golden := filepath.Join("testdata", target+".tsv")
		if *update {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s output differs from %s:\n%s", target, golden, out.String())
		}
	}
}

func TestQuickTable2(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "table2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "decode time") {
		t.Errorf("table2 output: %q", out.String())
	}
}

func TestAllTargetQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every generator")
	}
	var out bytes.Buffer
	if err := run([]string{"-quick", "all"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "table1", "table2", "fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("'all' output missing %s", id)
		}
	}
}
