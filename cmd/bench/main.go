// Command bench is asymshare's end-to-end benchmark: it boots an
// in-process cluster on the host loopback from the public constructors,
// runs the path a user runs — core.ShareFile → peer.Node×N →
// core.FetchFile / client.StreamFile — on four workloads, checks every
// fetched byte against its source, and prints each metric by name with
// unit, direction, sample count and regression bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"asymshare/internal/chunk"
)

// Default window lengths. BENCHMARK.json's run_seconds is the timed one.
const (
	defaultSeconds       = 20
	defaultTracedSeconds = 10
	defaultSetups        = 5
	defaultProbe         = 300 * time.Millisecond
)

// buildDir is where run.sh builds and where the benchmark keeps its
// scratch files, relative to the checkout it runs in.
const buildDir = ".bench_build"

// envStamp records the machine and settings a number was measured on.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Plan       string `json:"plan"`
	Network    string `json:"network"`
}

func stampEnv(seed int64) envStamp {
	plan := chunk.DefaultPlan()
	env := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		Seed:       seed,
		Plan:       fmt.Sprintf("GF(2^%d) m=%d chunk=%d", plan.FieldBits, plan.M, plan.ChunkSize),
		Network:    "loopback, in-process peers; no real link is measured",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = runtime.GOOS + " " + strings.TrimSpace(string(raw))
	}
	return env
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%q seed=%d plan=%q network=%q",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Kernel, e.Seed, e.Plan, e.Network)
}

// outcome is one finished workload run.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Env       envStamp           `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`  // what the mode reports on every workload
	Specific  map[string]float64 `json:"specific"` // timed: the metrics only this workload defines
	Samples   map[string]int     `json:"samples"`  // successful ops per kind
}

// execute sets a workload up, measures it and folds the result.
func execute(sp *spec, rc runConfig) (*outcome, error) {
	r, err := newRun(sp, rc)
	if err != nil {
		return nil, err
	}
	defer r.close()
	return r.finish(r.measure())
}

// finish turns a measured window into an outcome.
func (r *run) finish(m measured) (*outcome, error) {
	out := &outcome{
		Workload:  r.sp.name,
		Traced:    r.rc.traced,
		Env:       stampEnv(r.rc.seed),
		Correct:   r.rec.mismatches == 0,
		Attempted: r.rec.attempted,
		Failed:    r.rec.failed,
		Specific:  r.specificValues(),
		Samples:   map[string]int{},
	}
	if r.rec.firstErr != nil {
		out.FirstErr = r.rec.firstErr.Error()
	}
	for _, s := range r.rec.samples {
		out.Samples[s.kind]++
	}
	if !r.rc.traced {
		out.Metrics = r.endToEndValues(m)
		return out, nil
	}
	out.Metrics = r.layerValues(m)
	for name, v := range out.Specific {
		out.Metrics[specificPrefix+name] = v
	}
	if r.rc.probe > 0 {
		probes, err := runProbes(r.rc.seed, r.rc.probe, r.rc.scratch)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for name, v := range probes {
			out.Metrics[name] = v
		}
	}
	if r.rc.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(r.rc.traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.writeFile(r.rc.traceOut); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

// metricValue is one metric of the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reportPrefix starts the line that carries the full outcome to a
// parent running the suite.
const reportPrefix = "#outcome "

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printOutcome writes the human-readable metric list, the outcome line
// for a parent, and last the driver's result line.
func printOutcome(o *outcome) error {
	mode := "timed"
	if o.Traced {
		mode = "traced"
	}
	fmt.Printf("workload %s (%s run)\nenv %s\n", o.Workload, mode, o.Env)
	fmt.Printf("ops attempted=%d failed=%d byte-identical=%v %s\n", o.Attempted, o.Failed, o.Correct, o.FirstErr)
	line := resultLine{Correct: o.Correct, Attempted: max(1, o.Attempted), Failed: o.Failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if o.Traced {
		defs = tracedMetrics()
	}
	for _, d := range defs {
		v := finite(o.Metrics[d.name])
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		printMetric(d, v, o, !o.Traced)
	}
	if !o.Traced {
		for _, d := range specific {
			if v, ok := o.Specific[d.name]; ok {
				printMetric(d, finite(v), o, true)
			}
		}
	}
	blob, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", reportPrefix, blob)
	blob, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", blob)
	return nil
}

// sampleKind names the op kind whose count backs a metric.
func sampleKind(name string, o *outcome) string {
	switch strings.TrimPrefix(name, specificPrefix) {
	case "ttfc_ms", "play_p50_ms":
		return kindStream
	case "update_p50_ms":
		return kindUpdate
	}
	if _, ok := o.Samples[kindShare]; ok {
		return kindShare
	}
	return kindFetch
}

// printMetric prints one metric line. withSamples adds the count of
// ops behind it; per-layer sums and counts carry their own n
// (trace.ops) instead.
func printMetric(d metricDef, v float64, o *outcome, withSamples bool) {
	arrow := map[string]string{"higher": "↑", "lower": "↓"}[d.better]
	bound := ""
	switch {
	case d.bound > 0 && d.abs:
		bound = fmt.Sprintf(" bound=+%g abs", d.bound)
	case d.bound > 0:
		bound = fmt.Sprintf(" bound=%g", d.bound)
	case d.abs:
		bound = " bound=+0"
	}
	samples := ""
	if withSamples {
		kind := sampleKind(d.name, o)
		samples = fmt.Sprintf(" n=%d(%s)", o.Samples[kind], kind)
	}
	fmt.Printf("  %-28s %14.6g %-6s %s%s%s\n", d.name, v, d.unit, arrow, samples, bound)
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

// schema renders BENCHMARK.json from the tables in this package, so
// the file and the program cannot drift apart.
func schema() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: defaultSeconds,
	}
	for _, sp := range workloads() {
		f.Workloads = append(f.Workloads, map[string]any{"name": sp.name, "why": sp.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range tracedMetrics() {
		f.PerLayer = append(f.PerLayer, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	return append(blob, '\n'), err
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and end with the driver's result line; empty runs the suite")
		seed     = flag.Int64("seed", 1, "seed for data and identities")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default 20; traced suite runs 10)")
		trace    = flag.Int("trace", 0, "1 = traced run: instrumentation seams, stepwise ops with spans, probes")
		repeat   = flag.Int("repeat", 1, "suite: run the whole suite this many times and fail if an end-to-end metric differs by more than its bound")
		smoke    = flag.Bool("smoke", false, "one-chunk files, two ops per phase, one set-up: a seconds-long pass")
		traceOut = flag.String("trace-out", "", "traced run: write every span to this file as JSON")
		outPath  = flag.String("out", "", "suite: also write every outcome to this file as JSON")
		printDef = flag.Bool("schema", false, "print BENCHMARK.json as generated from the metric tables and exit")
	)
	flag.Parse()
	if *printDef {
		blob, err := schema()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
		return
	}
	if *workload == "" {
		os.Exit(runSuite(suiteConfig{seed: *seed, seconds: *seconds, repeat: *repeat, smoke: *smoke, traceOut: *traceOut, out: *outPath}))
	}
	sp := findWorkload(*workload)
	if sp == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	rc := runConfig{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace != 0,
		setups:   defaultSetups,
		scratch:  filepath.Join(buildDir, "tmp"),
		traceOut: *traceOut,
	}
	if rc.seconds <= 0 {
		rc.seconds = defaultSeconds
	}
	if rc.traced {
		rc.probe = defaultProbe
	}
	if *smoke {
		sp = smokeSpec(sp)
		rc.setups, rc.maxOps, rc.probe = 1, 2, min(rc.probe, 50*time.Millisecond)
	}
	o, err := execute(sp, rc)
	if err != nil {
		fatal(err)
	}
	if err := printOutcome(o); err != nil {
		fatal(err)
	}
	os.Exit(exitCode(o))
}

// exitCode is 1 for a run in which any op failed or returned wrong
// bytes, 0 otherwise.
func exitCode(o *outcome) int {
	if !o.Correct || o.Failed > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
