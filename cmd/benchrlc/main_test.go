package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallGrid(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "65536", "-repeat", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"GF(2^4", "GF(2^32", "thrpt(MB/s)"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// 4 fields x 6 message lengths + 2 header lines.
	if got := len(strings.Split(strings.TrimSpace(s), "\n")); got != 26 {
		t.Errorf("output lines = %d, want 26", got)
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "0"}, &out); err == nil {
		t.Error("zero size accepted")
	}
	if err := run([]string{"-repeat", "0"}, &out); err == nil {
		t.Error("zero repeat accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 8: 3, 1 << 15: 15}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRunCodecMode(t *testing.T) {
	var out bytes.Buffer
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-codec", "-size", "32768", "-reps", "1", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report codecReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	// 3 ops x (2 fields x 3 ks + the shipped plan's p=32, k=8).
	if len(report.Cells) != 21 {
		t.Fatalf("report has %d cells, want 21", len(report.Cells))
	}
	ops := map[string]bool{}
	shipped := 0
	for _, c := range report.Cells {
		ops[c.Op] = true
		if c.MBPerSec <= 0 || c.NsPerOp <= 0 {
			t.Errorf("cell %+v has non-positive rates", c)
		}
		if c.BeforeMBPerSec != 0 {
			t.Errorf("cell %+v carries a before rate without -before", c)
		}
		if c.FieldBits == 32 && c.K == 8 {
			shipped++
			if c.Op == "encode" && c.AllocsPerOp != 0 {
				t.Errorf("encode at the shipped plan allocates %d times per generation, want 0", c.AllocsPerOp)
			}
		}
	}
	if shipped != 3 {
		t.Errorf("report has %d cells for the shipped plan (p=32, k=8), want 3", shipped)
	}
	for _, op := range []string{"encode", "decode-sequential", "decode-pipeline"} {
		if !ops[op] {
			t.Errorf("report missing op %q", op)
		}
	}
	if !strings.Contains(out.String(), "decode-pipeline") {
		t.Error("table output missing decode-pipeline rows")
	}
}

// TestRunCodecModeBefore: a refresh over its own previous report keeps
// the old rates beside the new ones.
func TestRunCodecModeBefore(t *testing.T) {
	var out bytes.Buffer
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	args := []string{"-codec", "-size", "32768", "-reps", "1", "-json", jsonPath}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var first, second codecReport
	blob, _ := os.ReadFile(jsonPath)
	if err := json.Unmarshal(blob, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-before", jsonPath), &out); err != nil {
		t.Fatal(err)
	}
	blob, _ = os.ReadFile(jsonPath)
	if err := json.Unmarshal(blob, &second); err != nil {
		t.Fatal(err)
	}
	for i, c := range second.Cells {
		if c.BeforeMBPerSec != first.Cells[i].MBPerSec {
			t.Errorf("cell %s p=%d k=%d: before %v, previous report had %v",
				c.Op, c.FieldBits, c.K, c.BeforeMBPerSec, first.Cells[i].MBPerSec)
		}
	}
	if err := run([]string{"-codec", "-size", "32768", "-reps", "1", "-before", filepath.Join(t.TempDir(), "absent.json")}, &out); err == nil {
		t.Error("missing -before report accepted")
	}
}

func TestRunCodecModeBadGeometry(t *testing.T) {
	var out bytes.Buffer
	// 1000 bytes is not divisible by k=32 chunks of whole symbols.
	if err := run([]string{"-codec", "-size", "1000", "-reps", "1"}, &out); err == nil {
		t.Error("indivisible size accepted")
	}
}
