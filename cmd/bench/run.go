package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/core"
)

// Operation kinds. The primary kind of a workload (fetch or share)
// feeds the end-to-end metrics; verify is share_disk's untimed
// fetch-back; the lib kinds are the library ops a traced run times
// first, as the baseline its stepwise ops are compared with.
const (
	kindFetch    = "fetch"
	kindStream   = "stream"
	kindShare    = "share"
	kindUpdate   = "update"
	kindVerify   = "verify"
	kindFetchLib = "fetch_lib"
	kindShareLib = "share_lib"
	kindTTFC     = "ttfc" // samples only: time to first chunk of a stream op
)

var errMismatch = errors.New("bench: fetched bytes differ from the source")

// runConfig is how one workload run is sized.
type runConfig struct {
	seed     int64
	seconds  float64 // length of the measured window
	traced   bool
	setups   int           // set-up runs this many times; the median is reported
	maxOps   int           // ops per phase and client; 0 = bounded by time only
	probe    time.Duration // length of each memory-only probe of a traced run; 0 skips them
	scratch  string        // directory for disk stores
	traceOut string        // where a traced run writes its spans; "" = nowhere
}

// opSample is one completed, verified operation.
type opSample struct {
	kind   string
	client int
	ms     float64
	plain  int64 // plaintext bytes moved
	wire   int64 // message bytes on the wire
}

// recorder collects a run's operations. An op that errors, passes its
// deadline or returns wrong bytes is a failure and never a latency.
type recorder struct {
	mu         sync.Mutex
	samples    []opSample
	attempted  int
	failed     int
	mismatches int
	firstErr   error
}

func (r *recorder) fail(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if errors.Is(err, errMismatch) {
		r.mismatches++
	}
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf("%s: %w", kind, err)
	}
}

// ok records a successful op; extra are further samples it yielded
// (a stream's time to first chunk), which are not attempts themselves.
func (r *recorder) ok(s opSample, extra ...opSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.samples = append(append(r.samples, s), extra...)
}

// ms returns the latencies of one kind.
func (r *recorder) ms(kind string) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// opSums is bytes and busy time summed over samples.
type opSums struct {
	plain, wire int64
	seconds     float64
}

// rate is plaintext bytes per second of time spent inside the ops.
func (s opSums) rate() float64 {
	if s.seconds <= 0 {
		return 0
	}
	return float64(s.plain) / s.seconds
}

// sums adds up one kind's samples; client < 0 means every client.
func (r *recorder) sums(kind string, client int) opSums {
	var out opSums
	for _, s := range r.samples {
		if s.kind != kind || (client >= 0 && s.client != client) {
			continue
		}
		out.plain += s.plain
		out.wire += s.wire
		out.seconds += s.ms / 1e3
	}
	return out
}

// opOut is what an operation hands back for accounting. got is checked
// against want after the clock has stopped.
type opOut struct {
	got, want []byte
	plain     int64
	wire      int64
	ttfcMS    float64 // stream ops only
}

// run is one workload being measured.
type run struct {
	sp  *spec
	rc  runConfig
	cl  *cluster
	tr  *tracer // traced runs only
	rec recorder

	setupSeconds []float64
	countsMu     sync.Mutex   // guards decode and encodeMsgs
	decode       decodeCounts // stepwise fetches' decoder accounting
	encodeMsgs   int64        // stepwise shares' minted messages
}

// newRun sets the workload up rc.setups times — boot, generate data,
// pre-share, warm up — keeping the last cluster for the measurement.
func newRun(sp *spec, rc runConfig) (*run, error) {
	r := &run{sp: sp, rc: rc}
	if rc.traced {
		r.tr = newTracer()
	}
	for i := 0; i < max(1, rc.setups); i++ {
		if r.cl != nil {
			r.cl.close()
			r.cl = nil
		}
		start := time.Now()
		if err := r.setUp(); err != nil {
			r.close()
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		r.setupSeconds = append(r.setupSeconds, time.Since(start).Seconds())
	}
	return r, nil
}

func (r *run) close() {
	if r.cl != nil {
		r.cl.close()
	}
}

// setUp boots a cluster and brings it to the state the window starts
// from. Warm-up ops run through a scratch recorder; one that fails
// fails the set-up.
func (r *run) setUp() error {
	cl, err := bootCluster(r.sp, r.rc.seed, r.rc.traced, r.rc.scratch)
	if err != nil {
		return err
	}
	r.cl = cl
	ctx := context.Background()
	warm := &run{sp: r.sp, rc: r.rc, cl: cl, tr: r.tr}
	if r.sp.share {
		base := seedData(r.rc.seed, 0, r.sp.fileSize)
		for i := 0; i < r.sp.warmups; i++ {
			warm.shareIteration(ctx, base, -1-i, false, false)
		}
	} else {
		setupCtx, cancel := context.WithTimeout(ctx, time.Duration(r.sp.clients())*r.sp.opDeadline)
		err := cl.preShare(setupCtx, r.rc.seed)
		cancel()
		if err != nil {
			return err
		}
		for i := 0; i < r.sp.warmups; i++ {
			for c := range cl.systems {
				warm.do(ctx, kindFetch, c, warm.fetchOp(c, false))
			}
		}
		if r.sp.streams {
			warm.do(ctx, kindStream, 0, warm.streamOp(0))
		}
	}
	return warm.rec.firstErr
}

// do runs one operation under the workload's deadline and records it.
// It reports false once ctx — the phase — has been cut, in which case
// the interrupted op is neither an attempt nor a failure: the harness
// stopped it, not the system.
func (r *run) do(ctx context.Context, kind string, client int, op func(context.Context) (opOut, error)) bool {
	opCtx, cancel := context.WithTimeout(ctx, r.sp.opDeadline)
	start := time.Now()
	out, err := op(opCtx)
	elapsed := time.Since(start)
	if err == nil && opCtx.Err() != nil {
		err = opCtx.Err() // finished, but past its deadline
	}
	cancel()
	if ctx.Err() != nil {
		return false
	}
	if err == nil && out.want != nil && !bytes.Equal(out.got, out.want) {
		err = errMismatch
	}
	if err != nil {
		r.rec.fail(kind, err)
		return true
	}
	ms := float64(elapsed) / 1e6
	if kind == kindVerify {
		ms = 0 // untimed: counted and checked, never a latency
	}
	var extra []opSample
	if out.ttfcMS > 0 {
		extra = append(extra, opSample{kind: kindTTFC, client: client, ms: out.ttfcMS})
	}
	r.rec.ok(opSample{kind: kind, client: client, ms: ms, plain: out.plain, wire: out.wire}, extra...)
	return true
}

func sumBytesFrom(st client.FetchStats) int64 {
	var n int64
	for _, v := range st.BytesFrom {
		n += int64(v)
	}
	return n
}

// fetchOp fetches client c's file: core.FetchFile, or in a traced run
// the stepwise rebuild of it.
func (r *run) fetchOp(c int, stepwise bool) func(context.Context) (opOut, error) {
	sys, f := r.cl.systems[c], r.cl.files[c]
	return func(ctx context.Context) (opOut, error) {
		out := opOut{want: f.data, plain: int64(len(f.data))}
		if stepwise {
			got, wire, counts, err := stepwiseFetch(ctx, r.tr, sys, &f.handle, f.secret)
			r.countsMu.Lock()
			r.decode.offered += counts.offered
			r.decode.innovative += counts.innovative
			r.decode.rejected += counts.rejected
			r.countsMu.Unlock()
			out.got, out.wire = got, wire
			return out, err
		}
		got, st, err := sys.FetchFile(ctx, &f.handle, f.secret)
		out.got, out.wire = got, sumBytesFrom(st)
		return out, err
	}
}

// streamOp plays client c's file through client.StreamFile to EOF.
func (r *run) streamOp(c int) func(context.Context) (opOut, error) {
	sys, f := r.cl.systems[c], r.cl.files[c]
	return func(ctx context.Context) (opOut, error) {
		if r.tr != nil {
			id := r.tr.begin(r.tr.newOp(), 0, spanStream)
			defer r.tr.end(id)
		}
		out := opOut{want: f.data, plain: int64(len(f.data))}
		start := time.Now()
		str, err := sys.Client().StreamFile(ctx, f.handle.Peers, &f.handle.Manifest, f.secret, client.StreamOptions{})
		if err != nil {
			return out, err
		}
		defer str.Close()
		buf := make([]byte, 0, len(f.data))
		for {
			_, piece, err := str.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return out, err
			}
			if out.ttfcMS == 0 {
				out.ttfcMS = float64(time.Since(start)) / 1e6
			}
			buf = append(buf, piece...)
		}
		out.got, out.wire = buf, sumBytesFrom(str.Stats())
		return out, nil
	}
}

// loop runs body back to back until the phase is over: d has passed,
// body reported the phase cut, or rc.maxOps bodies have run.
func (r *run) loop(d time.Duration, body func() bool) {
	start := time.Now()
	for n := 0; time.Since(start) < d && (r.rc.maxOps == 0 || n < r.rc.maxOps); n++ {
		if !body() {
			return
		}
	}
}

// fetchPhase has every client fetch its own file, closed-loop, for d.
// With one client the last op runs to completion. With several, the
// phase is cut at d and ops in flight are dropped, or the slower
// client would finish alone on an uncontended link.
func (r *run) fetchPhase(ctx context.Context, d time.Duration, kind string, stepwise bool) {
	phaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if len(r.cl.systems) > 1 && r.rc.maxOps == 0 {
		timer := time.AfterFunc(d, cancel)
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	for c := range r.cl.systems {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			op := r.fetchOp(c, stepwise)
			r.loop(d, func() bool { return r.do(phaseCtx, kind, c, op) })
		}(c)
	}
	wg.Wait()
}

// shareIteration shares the base file, rewrites one chunk of it with
// UpdateFile, optionally fetches the updated file back and compares,
// then drops the file from the stores.
func (r *run) shareIteration(ctx context.Context, base []byte, iter int, verify, stepwise bool) {
	sys := r.cl.systems[0]
	kind := kindShare
	if r.tr != nil && !stepwise {
		kind = kindShareLib
	}
	var res *core.ShareResult
	r.do(ctx, kind, 0, func(ctx context.Context) (opOut, error) {
		var err error
		if stepwise {
			res, err = stepwiseShare(ctx, r.tr, sys, "bench-share.bin", base, r.cl.addrs)
			if err == nil {
				r.countsMu.Lock()
				r.encodeMsgs += int64(res.MessagesSent)
				r.countsMu.Unlock()
			}
		} else {
			res, err = sys.ShareFile(ctx, "bench-share.bin", base, r.cl.addrs)
		}
		if err != nil {
			res = nil
			return opOut{}, err
		}
		return opOut{plain: int64(len(base)), wire: res.BytesSent}, nil
	})
	if res == nil {
		return
	}
	defer func() {
		if err := r.cl.dropFile(&res.Handle); err != nil {
			r.rec.fail("drop", err)
		}
	}()

	chunkSize := sys.Plan().ChunkSize
	nChunks := (len(base) + chunkSize - 1) / chunkSize
	at := ((iter%nChunks + nChunks) % nChunks) * chunkSize
	end := min(at+chunkSize, len(base))
	updated := append([]byte(nil), base...)
	copy(updated[at:end], seedData(r.rc.seed, 1000+iter, end-at))
	updatedOK := false
	r.do(ctx, kindUpdate, 0, func(ctx context.Context) (opOut, error) {
		if r.tr != nil {
			id := r.tr.begin(r.tr.newOp(), 0, spanUpdate)
			defer r.tr.end(id)
		}
		ur, err := sys.UpdateFile(ctx, &res.Handle, res.Secret, base, updated)
		if err != nil {
			return opOut{}, err
		}
		updatedOK = true
		return opOut{plain: int64(end - at), wire: ur.BytesSent}, nil
	})
	if !verify || !updatedOK {
		return
	}
	r.do(ctx, kindVerify, 0, func(ctx context.Context) (opOut, error) {
		got, st, err := sys.FetchFile(ctx, &res.Handle, res.Secret)
		return opOut{got: got, want: updated, plain: int64(len(updated)), wire: sumBytesFrom(st)}, err
	})
}

// verifyEvery is how often share_disk fetches a handle back.
const verifyEvery = 5

// measured is what the window yields besides the recorder's samples.
type measured struct {
	cpuSeconds float64
	layerSpans []span             // traced: spans of the stepwise part of the window
	layerDelta map[string]float64 // traced: registry deltas over the same part
	layerWall  float64            // traced: its length in seconds
	grantedA   float64            // traced: mean granted share of client A
}

// measure runs the window. A traced run first spends a fifth of it on
// the library ops — the baseline trace.overhead compares against —
// then switches to the stepwise ops with spans and registry deltas
// recorded around them. On the fetch workloads with streams, what
// remains is split evenly between FetchFile and StreamFile.
func (r *run) measure() measured {
	ctx := context.Background()
	total := time.Duration(r.rc.seconds * float64(time.Second))
	var baseline time.Duration
	if r.rc.traced {
		baseline = total / 5
	}
	rest := total - baseline
	var base []byte // the file share_disk shares over and over
	if r.sp.share {
		base = seedData(r.rc.seed, 0, r.sp.fileSize)
	}

	var m measured
	cpu0 := cpuSeconds()
	if baseline > 0 {
		if r.sp.share {
			iter := 0
			r.loop(baseline, func() bool { r.shareIteration(ctx, base, iter, false, false); iter++; return true })
		} else {
			r.fetchPhase(ctx, baseline, kindFetchLib, false)
		}
	}

	var stopLayers func() (map[string]float64, float64)
	mark := 0
	layerStart := time.Now()
	if r.rc.traced {
		mark = r.tr.mark()
		stopLayers = r.cl.watchLayers()
	}
	if r.sp.share {
		iter := 0
		r.loop(rest, func() bool {
			iter++
			r.shareIteration(ctx, base, iter, iter%verifyEvery == 0 || r.rc.maxOps > 0, r.rc.traced)
			return true
		})
	} else {
		fetchFor := rest
		if r.sp.streams {
			fetchFor = rest / 2
		}
		r.fetchPhase(ctx, fetchFor, kindFetch, r.rc.traced)
		if r.sp.streams {
			op := r.streamOp(0)
			r.loop(rest-fetchFor, func() bool { return r.do(ctx, kindStream, 0, op) })
		}
	}
	if r.rc.traced {
		m.layerWall = time.Since(layerStart).Seconds()
		m.layerDelta, m.grantedA = stopLayers()
		m.layerSpans = r.tr.since(mark)
	}
	m.cpuSeconds = cpuSeconds() - cpu0
	return m
}

// primaryKind is the op kind the end-to-end metrics are defined over.
func (sp *spec) primaryKind() string {
	if sp.share {
		return kindShare
	}
	return kindFetch
}

// targetShare is client A's share under Eq. (2): its pre-credit over
// the sum of both.
func (sp *spec) targetShare() float64 {
	var sum float64
	for _, c := range sp.credit {
		sum += c
	}
	if sum == 0 {
		return 0
	}
	return sp.credit[0] / sum
}

// endToEndValues computes the metrics every workload reports.
func (r *run) endToEndValues(m measured) map[string]float64 {
	rec := &r.rec
	primary := r.sp.primaryKind()
	var rate float64 // bytes/s, summed over clients
	for c := range r.cl.systems {
		rate += rec.sums(primary, c).rate()
	}
	var plain, wire int64
	for _, s := range rec.samples {
		plain += s.plain
		wire += s.wire
	}
	out := map[string]float64{
		"goodput_mibps": rate / mib,
		"op_p50_ms":     median(rec.ms(primary)),
		"peak_rss_mib":  peakRSSMiB(),
		"setup_s":       median(r.setupSeconds),
	}
	if plain > 0 {
		out["wire_overhead"] = float64(wire) / float64(plain)
		out["cpu_s_per_gib"] = m.cpuSeconds / (float64(plain) / (1 << 30))
	}
	return out
}

// specificValues computes the end-to-end metrics this workload defines
// beyond the common ones; absent keys do not apply to it.
func (r *run) specificValues() map[string]float64 {
	rec := &r.rec
	out := map[string]float64{}
	if rec.attempted > 0 {
		out["fail_share"] = float64(rec.failed) / float64(rec.attempted)
	}
	if r.sp.share {
		out["update_p50_ms"] = median(rec.ms(kindUpdate))
		return out
	}
	fetches := rec.ms(kindFetch)
	out["fetch_p90_ms"] = percentile(fetches, math.Min(0.90, supportedTail(len(fetches))))
	if r.sp.streams {
		out["ttfc_ms"] = median(rec.ms(kindTTFC))
		out["play_p50_ms"] = median(rec.ms(kindStream))
	}
	if capSum := r.sp.capSum(); capSum > 0 {
		var rate, wireRate float64
		for c := range r.cl.systems {
			s := rec.sums(kindFetch, c)
			rate += s.rate()
			if s.seconds > 0 {
				wireRate += float64(s.wire) / s.seconds
			}
		}
		out["link_efficiency"] = linkEfficiency(rate, capSum)
		out["cap_overshoot"] = capOvershoot(wireRate, capSum)
	}
	if len(r.sp.credit) > 1 {
		a, b := rec.sums(kindFetch, 0).rate(), rec.sums(kindFetch, 1).rate()
		if a+b > 0 {
			out["share_a"] = a / (a + b)
			out["alloc_share_err"] = math.Abs(a/(a+b) - r.sp.targetShare())
		}
	}
	return out
}
