package rlnc

// Pipeline is the parallel decode engine (DESIGN.md §9). It splits the
// work the sequential Decoder does under one caller into three stages
// with very different costs:
//
//  1. verify   — digest authentication (MD5) and coefficient-row
//                derivation (HMAC-SHA256): embarrassingly parallel,
//                done by the calling producer goroutines themselves,
//                bounded by a fixed set of verifier slots;
//  2. innovate — coefficient-space Gaussian elimination over a K-wide
//                row (a few KiB of uint32 math): serialized under one
//                small mutex, so innovation decisions are strictly
//                ordered and duplicates/dependent rows are settled
//                without ever touching payload bytes;
//  3. eliminate — the recorded row operations replayed over the
//                payload (ChunkBytes() per row, the real cost): handed
//                to a serial job runner that fans each job's payload
//                out to a worker pool in cache-sized segments, using
//                per-factor split product tables (gf.MulTable).
//
// Every buffer on the steady-state path — verifier scratch, coefficient
// rows, payload arena slots, job and step storage, product tables — is
// preallocated at construction and recycled through free lists, so an
// accepted message allocates nothing.
//
// Because stage 2 records the exact factor sequence the sequential
// Decoder would apply and GF arithmetic is exact, the decoded output is
// byte-identical to Decoder's on any input stream.

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"sync/atomic"

	"asymshare/internal/gf"
)

// ErrPipelineClosed is returned by Add and Decode after Close.
var ErrPipelineClosed = errors.New("rlnc: pipeline closed")

// PipelineConfig tunes the decode engine. The zero value picks
// sensible defaults for the host.
type PipelineConfig struct {
	// Workers is the number of goroutines eliminating payload
	// segments, including the serial job runner itself. 0 means
	// GOMAXPROCS; 1 runs every segment inline on the runner.
	Workers int
	// SegmentBytes is the smallest payload slice fanned out to one
	// worker (8-byte aligned); payloads shorter than 2*SegmentBytes
	// are eliminated in one piece. 0 means 4096.
	SegmentBytes int
	// Verifiers bounds how many producers can authenticate and derive
	// coefficient rows concurrently; further Add calls block, which is
	// the pipeline's back-pressure toward the network. 0 means
	// max(2, Workers).
	Verifiers int
}

// PipelineTelemetry is a snapshot of the engine's counters, exported
// so the client can surface queue depth, worker utilization and decode
// throughput as metrics.
type PipelineTelemetry struct {
	QueueDepth      int    // payload jobs enqueued but not yet finished
	BusyWorkers     int    // workers currently eliminating a segment
	Workers         int    // size of the worker pool (incl. the runner)
	Jobs            uint64 // payload jobs completed
	Segments        uint64 // payload segments eliminated
	EliminatedBytes uint64 // payload bytes processed by row operations
}

// verifier is the per-producer scratch handed out from a free list:
// reusable hashes and buffers so stage 1 never allocates.
type verifier struct {
	rows *RowStream
	md5h hash.Hash
	hdr  [headerBytes]byte
	sum  []byte // cap DigestLen
}

// pipeJob is one row's payload elimination: replay steps (and the
// final pivot normalization scale) over the payload in slot dst.
type pipeJob struct {
	dst   int32
	scale uint32
	steps []elimStep
	wg    sync.WaitGroup // outstanding segments
}

// segTask is one payload slice of a job, claimed by a worker.
type segTask struct {
	job    *pipeJob
	lo, hi int
	scale  *gf.MulTable
}

// Pipeline implements Sink with concurrent producers and parallel
// payload elimination. Construct with NewPipeline, feed it from any
// number of goroutines, then call Decode (or DecodeInto) once Done;
// Retarget it at the next generation of the same geometry as often as
// wanted, and Close when finished with it.
type Pipeline struct {
	params  Params
	fileID  uint64
	gen     *CoeffGenerator
	digests map[uint64]Digest
	cb      int // ChunkBytes
	workers int
	segMin  int

	verifiers chan *verifier
	rowFree   chan []uint32
	slotFree  chan []byte

	mu      sync.Mutex
	seen    map[uint64]bool
	echelon [][]uint32
	pivots  []int
	pays    [][]byte // payload slot per echelon row, fixed K entries
	stats   Stats
	closed  bool

	rank atomic.Int64

	decodeMu sync.Mutex
	solved   bool

	jobs   chan *pipeJob
	jobsWG sync.WaitGroup
	segCh  chan segTask
	quit   chan struct{}
	bgWG   sync.WaitGroup
	jobBuf []pipeJob
	tabs   []gf.MulTable // runner-owned: one per step of the current job, +1 for scale

	closeOnce sync.Once

	depth     atomic.Int64
	busy      atomic.Int64
	jobsDone  atomic.Uint64
	segsDone  atomic.Uint64
	elimBytes atomic.Uint64
}

// NewPipeline prepares a parallel decoder for one generation, mirroring
// NewDecoder's contract. digests, if non-nil, enables per-message
// authentication. The returned pipeline owns background goroutines;
// callers must Close it.
func NewPipeline(params Params, fileID uint64, secret []byte, digests map[uint64]Digest, cfg PipelineConfig) (*Pipeline, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	gen, err := NewCoeffGenerator(params.Field, params.K, secret)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	segMin := cfg.SegmentBytes &^ 7
	if segMin <= 0 {
		segMin = 4096
	}
	nver := cfg.Verifiers
	if nver <= 0 {
		nver = max(2, workers)
	}
	k := params.K
	cb := params.ChunkBytes()

	p := &Pipeline{
		params:    params,
		fileID:    fileID,
		gen:       gen,
		digests:   digests,
		cb:        cb,
		workers:   workers,
		segMin:    segMin,
		verifiers: make(chan *verifier, nver),
		rowFree:   make(chan []uint32, k+nver),
		slotFree:  make(chan []byte, k+nver),
		seen:      make(map[uint64]bool, 2*k),
		echelon:   make([][]uint32, 0, k),
		pivots:    make([]int, 0, k),
		pays:      make([][]byte, k),
		jobs:      make(chan *pipeJob, k),
		segCh:     make(chan segTask, workers*2),
		quit:      make(chan struct{}),
		jobBuf:    make([]pipeJob, k),
		tabs:      make([]gf.MulTable, k+1),
	}
	for i := 0; i < nver; i++ {
		p.verifiers <- &verifier{
			rows: gen.Stream(),
			md5h: md5.New(),
			sum:  make([]byte, 0, DigestLen),
		}
	}
	rowArena := make([]uint32, (k+nver)*k)
	for i := 0; i < k+nver; i++ {
		p.rowFree <- rowArena[i*k : (i+1)*k : (i+1)*k]
	}
	payArena := make([]byte, (k+nver)*cb)
	for i := 0; i < k+nver; i++ {
		p.slotFree <- payArena[i*cb : (i+1)*cb : (i+1)*cb]
	}
	stepArena := make([]elimStep, k*k)
	for i := range p.jobBuf {
		p.jobBuf[i].steps = stepArena[i*k : i*k : (i+1)*k]
	}

	p.bgWG.Add(1)
	go p.runner()
	for i := 1; i < workers; i++ {
		p.bgWG.Add(1)
		go p.segWorker()
	}
	return p, nil
}

// Rank implements Sink.
func (p *Pipeline) Rank() int { return int(p.rank.Load()) }

// Done implements Sink.
func (p *Pipeline) Done() bool { return p.Rank() >= p.params.K }

// Stats implements Sink.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Telemetry returns a snapshot of the engine counters.
func (p *Pipeline) Telemetry() PipelineTelemetry {
	return PipelineTelemetry{
		QueueDepth:      int(p.depth.Load()),
		BusyWorkers:     int(p.busy.Load()),
		Workers:         p.workers,
		Jobs:            p.jobsDone.Load(),
		Segments:        p.segsDone.Load(),
		EliminatedBytes: p.elimBytes.Load(),
	}
}

// Add implements Sink. It is safe for any number of concurrent
// producers; verification runs on the caller's goroutine, the
// innovation check under a short lock, and payload elimination
// asynchronously on the worker pool.
func (p *Pipeline) Add(msg *Message) (bool, error) {
	if msg.FileID != p.fileID {
		p.countEarly(func(s *Stats) { s.Rejected++ })
		return false, fmt.Errorf("%w: got file %d, want %d", ErrWrongFile, msg.FileID, p.fileID)
	}
	if len(msg.Payload) != p.cb {
		p.countEarly(func(s *Stats) { s.Rejected++ })
		return false, fmt.Errorf("%w: payload %d bytes, want %d",
			ErrBadParams, len(msg.Payload), p.cb)
	}

	// Stage 1: authenticate and derive the coefficient row on this
	// goroutine. The verifier free list bounds producer concurrency.
	v := <-p.verifiers
	if p.digests != nil {
		want, ok := p.digests[msg.MessageID]
		if ok {
			v.sum = msg.digestInto(v.md5h, &v.hdr, v.sum)
			ok = Digest(v.sum) == want
		}
		if !ok {
			p.verifiers <- v
			p.countEarly(func(s *Stats) { s.Rejected++ })
			return false, fmt.Errorf("%w: message-id %d", ErrBadDigest, msg.MessageID)
		}
	}
	// Acquire both pooled buffers before releasing the verifier slot:
	// the verifier pool is what bounds in-flight buffer demand, which
	// keeps the free lists (sized k + Verifiers) deadlock-free no
	// matter how many producers call Add.
	cand := <-p.rowFree
	slot := <-p.slotFree
	v.rows.RowInto(p.fileID, msg.MessageID, cand)
	copy(slot, msg.Payload)
	p.verifiers <- v
	return p.commit(msg.MessageID, cand, slot)
}

// AddBytes ingests one serialized message (16-byte header + payload)
// straight from a wire frame, without unmarshaling into a Message: the
// identifiers are parsed in place, the digest — defined over exactly
// these bytes — is computed over the frame itself, and the payload is
// copied once, directly into a pooled arena slot. This is the zero-copy
// receive hot path: an accepted frame costs one memcpy and no
// allocations. The caller keeps ownership of data; it may be recycled
// as soon as AddBytes returns.
func (p *Pipeline) AddBytes(data []byte) (bool, error) {
	if len(data) < headerBytes {
		return false, fmt.Errorf("%w: %d bytes", ErrShortMessage, len(data))
	}
	fileID := binary.BigEndian.Uint64(data[0:])
	msgID := binary.BigEndian.Uint64(data[8:])
	if fileID != p.fileID {
		p.countEarly(func(s *Stats) { s.Rejected++ })
		return false, fmt.Errorf("%w: got file %d, want %d", ErrWrongFile, fileID, p.fileID)
	}
	payload := data[headerBytes:]
	if len(payload) != p.cb {
		p.countEarly(func(s *Stats) { s.Rejected++ })
		return false, fmt.Errorf("%w: payload %d bytes, want %d",
			ErrBadParams, len(payload), p.cb)
	}

	v := <-p.verifiers
	if p.digests != nil {
		want, ok := p.digests[msgID]
		if ok {
			v.md5h.Reset()
			v.md5h.Write(data)
			v.sum = v.md5h.Sum(v.sum[:0])
			ok = Digest(v.sum) == want
		}
		if !ok {
			p.verifiers <- v
			p.countEarly(func(s *Stats) { s.Rejected++ })
			return false, fmt.Errorf("%w: message-id %d", ErrBadDigest, msgID)
		}
	}
	cand := <-p.rowFree
	slot := <-p.slotFree
	v.rows.RowInto(p.fileID, msgID, cand)
	copy(slot, payload)
	p.verifiers <- v
	return p.commit(msgID, cand, slot)
}

// commit is stages 2 and 3 shared by Add and AddBytes: settle the
// row's innovation under the lock and, if it survives, hand the
// payload elimination to the job runner. cand and slot are owned by
// the call and returned to the free lists unless the row is accepted.
func (p *Pipeline) commit(msgID uint64, cand []uint32, slot []byte) (bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.rowFree <- cand
		p.slotFree <- slot
		return false, ErrPipelineClosed
	}
	p.stats.Received++
	if p.seen[msgID] {
		p.stats.Duplicate++
		p.mu.Unlock()
		p.rowFree <- cand
		p.slotFree <- slot
		return false, nil
	}
	p.seen[msgID] = true
	r := len(p.echelon)
	if r >= p.params.K {
		p.stats.Redundant++
		p.mu.Unlock()
		p.rowFree <- cand
		p.slotFree <- slot
		return false, nil
	}
	job := &p.jobBuf[r]
	steps, scale, innovative := reduceRowCoeffs(p.params.Field, cand, p.echelon, p.pivots, job.steps[:0])
	if !innovative {
		p.stats.Redundant++
		p.mu.Unlock()
		p.rowFree <- cand
		p.slotFree <- slot
		return false, nil
	}
	p.echelon = append(p.echelon, cand)
	p.pivots = append(p.pivots, leadingIndex(cand))
	p.pays[r] = slot
	p.stats.Accepted++
	job.dst = int32(r)
	job.steps = steps
	job.scale = scale
	// Stage 3 handoff: enqueue while still holding the lock so the
	// serial runner sees jobs in acceptance order (job r must never
	// run before the jobs producing its source rows). The channel
	// holds K jobs, so the send cannot block.
	if len(steps) > 0 || scale != 1 {
		p.jobsWG.Add(1)
		p.depth.Add(1)
		p.jobs <- job
	}
	p.rank.Store(int64(r + 1))
	p.mu.Unlock()
	return true, nil
}

// countEarly records an outcome for messages rejected before stage 2.
func (p *Pipeline) countEarly(bump func(*Stats)) {
	p.mu.Lock()
	p.stats.Received++
	bump(&p.stats)
	p.mu.Unlock()
}

// runner serializes payload jobs: builds the per-factor product tables
// once per job, splits the payload into segments, farms them out and
// takes the first segment itself.
func (p *Pipeline) runner() {
	defer p.bgWG.Done()
	for {
		select {
		case job := <-p.jobs:
			p.runJob(job)
		case <-p.quit:
			return
		}
	}
}

func (p *Pipeline) runJob(job *pipeJob) {
	f := p.params.Field
	n := len(job.steps)
	for s := 0; s < n; s++ {
		p.tabs[s].Init(f, job.steps[s].factor)
	}
	var scale *gf.MulTable
	if job.scale != 1 {
		p.tabs[n].Init(f, job.scale)
		scale = &p.tabs[n]
	}

	segs := 1
	if p.workers > 1 && p.cb >= 2*p.segMin {
		segs = min(p.workers, p.cb/p.segMin)
	}
	if segs <= 1 {
		p.busy.Add(1)
		p.applySeg(job, 0, p.cb, scale)
		p.busy.Add(-1)
	} else {
		per := (p.cb / segs) &^ 7
		job.wg.Add(segs - 1)
		lo := per
		for s := 1; s < segs; s++ {
			hi := lo + per
			if s == segs-1 {
				hi = p.cb
			}
			p.segCh <- segTask{job: job, lo: lo, hi: hi, scale: scale}
			lo = hi
		}
		p.busy.Add(1)
		p.applySeg(job, 0, per, scale)
		p.busy.Add(-1)
		job.wg.Wait()
	}
	p.depth.Add(-1)
	p.jobsDone.Add(1)
	p.jobsWG.Done()
}

// segWorker eliminates payload segments until Close.
func (p *Pipeline) segWorker() {
	defer p.bgWG.Done()
	for {
		select {
		case t := <-p.segCh:
			p.busy.Add(1)
			p.applySeg(t.job, t.lo, t.hi, t.scale)
			p.busy.Add(-1)
			t.job.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// applySeg replays a job's recorded row operations over one payload
// slice. Reads of p.pays entries are ordered by the jobs/segCh channel
// sends that happen after the rows were committed under p.mu.
func (p *Pipeline) applySeg(job *pipeJob, lo, hi int, scale *gf.MulTable) {
	dst := p.pays[job.dst][lo:hi]
	for s := range job.steps {
		src := p.pays[job.steps[s].src][lo:hi]
		p.tabs[s].MulAdd(dst, src)
	}
	if scale != nil {
		scale.Mul(dst)
	}
	p.segsDone.Add(1)
	p.elimBytes.Add(uint64((hi - lo) * (len(job.steps) + 1)))
}

// Decode completes the generation and returns the original data,
// trimmed to params.DataLen. It returns ErrNotDecodable if rank < k.
func (p *Pipeline) Decode() ([]byte, error) {
	out := make([]byte, p.params.DataLen)
	if err := p.DecodeInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto is Decode with a caller-supplied buffer of exactly
// DataLen bytes, for allocation-free reuse across generations.
func (p *Pipeline) DecodeInto(out []byte) error {
	if len(out) != p.params.DataLen {
		return fmt.Errorf("%w: output %d bytes, want %d", ErrBadParams, len(out), p.params.DataLen)
	}
	p.decodeMu.Lock()
	defer p.decodeMu.Unlock()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPipelineClosed
	}
	rank := len(p.echelon)
	p.mu.Unlock()
	k := p.params.K
	if rank < k {
		return fmt.Errorf("%w: rank %d of %d", ErrNotDecodable, rank, k)
	}
	// Drain forward elimination. Rank is full, so no new payload jobs
	// can be enqueued concurrently.
	p.jobsWG.Wait()

	if !p.solved {
		// Back-substitution, row by row from the bottom: row r's
		// remaining cross-references are exactly the pivots of rows
		// inserted after it, whose payloads are already final when the
		// serial runner (processing jobs in enqueue order) reaches row
		// r's job. The factor sequence matches the sequential decoder's
		// Gauss-Jordan sweep exactly.
		f := p.params.Field
		for r := k - 1; r >= 0; r-- {
			job := &p.jobBuf[r]
			job.dst = int32(r)
			job.scale = 1
			job.steps = job.steps[:0]
			for i := k - 1; i > r; i-- {
				factor := p.echelon[r][p.pivots[i]]
				if factor == 0 {
					continue
				}
				addScaledRow(f, p.echelon[r], p.echelon[i], factor)
				job.steps = append(job.steps, elimStep{src: int32(i), factor: factor})
			}
			if len(job.steps) == 0 {
				continue
			}
			p.jobsWG.Add(1)
			p.depth.Add(1)
			p.jobs <- job
		}
		p.jobsWG.Wait()
		p.solved = true
	}

	cb := p.cb
	for i := 0; i < k; i++ {
		off := p.pivots[i] * cb
		if off >= len(out) {
			continue
		}
		copy(out[off:], p.pays[i])
	}
	return nil
}

// Retarget points the engine at another generation of the same
// geometry — same field, K and chunk-vector size; DataLen may differ —
// keeping the secret and with it the coefficient generator, and every
// pooled buffer, verifier and worker: the arena is recycled, not
// rebuilt. digests replaces the authentication table (nil disables it).
// A different geometry is refused with ErrBadParams and leaves the
// engine untouched; build a fresh pipeline for it. The caller must
// ensure no Add or Decode is in flight — every producer of the previous
// generation has returned — and frames still addressed to the old
// file-id are thereafter ErrWrongFile like any other foreign message.
func (p *Pipeline) Retarget(params Params, fileID uint64, digests map[uint64]Digest) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if params.Field.Bits() != p.params.Field.Bits() || params.K != p.params.K || params.ChunkBytes() != p.cb {
		return fmt.Errorf("%w: retarget %v onto a pipeline built for %v", ErrBadParams, params, p.params)
	}
	p.decodeMu.Lock()
	defer p.decodeMu.Unlock()
	p.jobsWG.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPipelineClosed
	}
	p.params, p.fileID, p.digests = params, fileID, digests
	clear(p.seen)
	for i, row := range p.echelon {
		p.rowFree <- row
		p.slotFree <- p.pays[i]
		p.pays[i] = nil
		p.echelon[i] = nil
	}
	p.echelon = p.echelon[:0]
	p.pivots = p.pivots[:0]
	p.stats = Stats{}
	p.solved = false
	p.rank.Store(0)
	p.jobsDone.Store(0)
	p.segsDone.Store(0)
	p.elimBytes.Store(0)
	return nil
}

// Close stops the worker pool. It drains in-flight payload jobs first;
// subsequent Add and Decode calls fail with ErrPipelineClosed. Close
// is idempotent and safe to call concurrently with producers blocked
// in Add.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.jobsWG.Wait()
		close(p.quit)
		p.bgWG.Wait()
	})
}
