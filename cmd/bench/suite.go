package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// suiteConfig sizes a run of all four workloads.
type suiteConfig struct {
	seed     int64
	seconds  float64 // timed window; 0 = default. Traced windows are half as long.
	repeat   int
	smoke    bool
	traceOut string
	out      string // write every set's outcomes here as JSON
}

// suiteSet is one pass over every workload: a timed and a traced
// outcome each.
type suiteSet struct {
	Timed  map[string]*outcome `json:"timed"`
	Traced map[string]*outcome `json:"traced"`
}

// runChild runs one workload in a child process of its own — fresh
// RSS, no cross-talk between workloads — and parses the outcome line.
func runChild(args ...string) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			var o outcome
			if err := json.Unmarshal([]byte(rest), &o); err != nil {
				return nil, err
			}
			return &o, nil // a child that counted failures exits 1 but still reports
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("child %v: %w", args, runErr)
	}
	return nil, fmt.Errorf("child %v printed no outcome", args)
}

// runSuite runs every workload timed then traced, cfg.repeat times
// over, prints the metrics and returns the process exit code.
func runSuite(cfg suiteConfig) int {
	timedSeconds, tracedSeconds := float64(defaultSeconds), float64(defaultTracedSeconds)
	if cfg.seconds > 0 {
		timedSeconds, tracedSeconds = cfg.seconds, cfg.seconds/2
	}
	env := stampEnv(cfg.seed)
	fmt.Printf("asymshare end-to-end benchmark\nenv %s\n", env)
	fmt.Print("closed loop from one process, at most two concurrent clients; every op carries a deadline\n\n")

	exit := 0
	var sets []suiteSet
	for pass := 0; pass < max(1, cfg.repeat); pass++ {
		set := suiteSet{Timed: map[string]*outcome{}, Traced: map[string]*outcome{}}
		for _, sp := range workloads() {
			for _, traced := range []bool{false, true} {
				args := []string{"-workload", sp.name, "-seed", strconv.FormatInt(cfg.seed, 10)}
				if traced {
					args = append(args, "-trace", "1", "-seconds", fmt.Sprint(tracedSeconds))
					if cfg.traceOut != "" {
						args = append(args, "-trace-out", fmt.Sprintf("%s.%s.json", cfg.traceOut, sp.name))
					}
				} else {
					args = append(args, "-seconds", fmt.Sprint(timedSeconds))
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				o, err := runChild(args...)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if traced {
					set.Traced[sp.name] = o
				} else {
					set.Timed[sp.name] = o
				}
				exit = max(exit, exitCode(o))
			}
		}
		fmt.Printf("== set %d of %d ==\n", pass+1, max(1, cfg.repeat))
		printSet(set)
		sets = append(sets, set)
	}
	for i := 1; i < len(sets); i++ {
		for _, v := range compareSets(sets[0], sets[i]) {
			fmt.Printf("REPEAT MISMATCH %s\n", v)
			exit = 1
		}
	}
	if cfg.out != "" {
		blob, err := json.MarshalIndent(map[string]any{"env": env, "sets": sets}, "", " ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if len(sets) > 1 && exit == 0 {
		fmt.Printf("repeatability: %d sets agree within every end-to-end bound\n", len(sets))
	}
	return exit
}

// printSet prints each workload's end-to-end metrics, then its
// per-layer metrics.
func printSet(set suiteSet) {
	for _, sp := range workloads() {
		timed, traced := set.Timed[sp.name], set.Traced[sp.name]
		fmt.Printf("\n%s — %s\n", sp.name, sp.why)
		fmt.Printf("  ops attempted=%d failed=%d byte-identical=%v %s\n", timed.Attempted, timed.Failed, timed.Correct, timed.FirstErr)
		fmt.Println(" end to end (timed run, no registries, no spans):")
		for _, d := range endToEnd {
			printMetric(d, timed.Metrics[d.name], timed, true)
		}
		for _, d := range specific {
			if v, ok := timed.Specific[d.name]; ok {
				printMetric(d, v, timed, true)
			}
		}
		fmt.Printf(" per layer (traced run, %d failed of %d ops, stepwise output byte-identical=%v):\n",
			traced.Failed, traced.Attempted, traced.Correct)
		for _, d := range perLayer {
			printMetric(d, traced.Metrics[d.name], traced, false)
		}
	}
}

// worsening is how much worse b reads than a under the metric's
// direction: a share of a, or an absolute difference for abs bounds.
func worsening(d metricDef, a, b float64) float64 {
	diff := b - a
	if d.better == "higher" {
		diff = -diff
	}
	if d.abs {
		return diff
	}
	if a == 0 {
		if diff > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return diff / math.Abs(a)
}

// compareSets lists every end-to-end metric that differs between two
// sets of the same code by more than its bound, in either direction:
// two runs of one program that disagree mean the metric cannot carry a
// later regression verdict.
func compareSets(a, b suiteSet) []string {
	var out []string
	for _, sp := range workloads() {
		ta, tb := a.Timed[sp.name], b.Timed[sp.name]
		check := func(d metricDef, va, vb float64) {
			w := math.Max(worsening(d, va, vb), worsening(d, vb, va))
			if w > d.bound {
				out = append(out, fmt.Sprintf("%s on %s: %.6g vs %.6g %s, differ by %.3g, bound %g",
					d.name, sp.name, va, vb, d.unit, w, d.bound))
			}
		}
		for _, d := range endToEnd {
			check(d, ta.Metrics[d.name], tb.Metrics[d.name])
		}
		for _, d := range specific {
			va, okA := ta.Specific[d.name]
			vb, okB := tb.Specific[d.name]
			if okA && okB {
				check(d, va, vb)
			}
		}
	}
	return out
}
