package rlnc

// Pipeline is the parallel decode engine (DESIGN.md §9). It splits the
// work the sequential Decoder does under one caller into a staging step
// and three stages with very different costs:
//
//  0. stage    — the cheap checks (file-id, length, a digest on record
//                for the message-id, not a repeat of a verified id) and
//                the one copy of the payload into an arena slot, on the
//                calling producer; the message is then parked, and the
//                producer returns without a verdict;
//  1. verify   — the producer whose arrival brings the parked count to
//                min(8, K − rank) — what the generation still needs, at
//                most a lane pass — digests the group side by side
//                (DigestBatch) and compares each digest with that
//                message's own entry;
//  2. innovate — for every message that passed, its coefficient row
//                (HMAC-SHA256) and coefficient-space Gaussian
//                elimination over it (a few KiB of uint32 math), in
//                arrival order under the engine's one mutex, so
//                innovation decisions are strictly ordered and
//                duplicates/dependent rows are settled without ever
//                touching payload bytes;
//  3. eliminate — the recorded row operations replayed over the
//                payload (ChunkBytes() per row, the real cost): handed
//                to a serial job runner that fans each job's payload
//                out to a worker pool in cache-sized segments, using
//                per-factor split product tables (gf.MulTable).
//
// A parked message is not yet trusted: it has no row, is not counted in
// Rank or Stats, and no byte of it is read by stage 3 until its digest
// has matched. Arrivals beyond what the generation needs do not park:
// they wait for the group's outcome and, if it completed the
// generation, are settled redundant without being hashed.
//
// Every buffer on the steady-state path — the K payload slots and K
// coefficient rows (parked plus committed never exceeds K), the group
// scratch, job and step storage, product tables — is preallocated at
// construction and recycled through free lists, so an accepted message
// allocates nothing.
//
// Because stage 2 records the exact factor sequence the sequential
// Decoder would apply to the same messages in the same order and GF
// arithmetic is exact, the decoded output is byte-identical to
// Decoder's on any input stream.

import (
	"encoding/binary"
	"errors"
	"fmt"
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

	VerifyGroups     uint64 // parked groups digested and settled
	LaneMessages     uint64 // messages digested in the eight-lane kernel
	ScalarMessages   uint64 // messages digested one at a time
	SkippedRedundant uint64 // arrivals settled redundant unhashed: the generation was complete
}

// staged is one parked arrival: its message-id and the arena slot its
// payload was copied into.
type staged struct {
	id   uint64
	slot []byte
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
	rows    *RowStream // used under mu, by whoever settles a group
	digests map[uint64]Digest
	cb      int // ChunkBytes
	workers int
	segMin  int

	mu       sync.Mutex
	settled  *sync.Cond // a group has been settled, or the engine closed
	rowFree  [][]uint32
	slotFree [][]byte
	seen     map[uint64]bool
	echelon  [][]uint32
	pivots   []int
	pays     [][]byte // payload slot per echelon row, fixed K entries
	stats    Stats
	closed   bool

	// Staging. reserved counts arena slots held by arrivals that have
	// no verdict yet — being copied, parked, or in the group being
	// verified — and never exceeds K − rank, so rank + reserved ≤ K
	// and the free lists cannot run dry.
	reserved  int
	parked    []staged // copied and waiting, in arrival order
	verifying bool     // a producer is settling groups; it alone uses group/sums
	group     [digestLanes]Message
	groupPtr  [digestLanes]*Message
	sums      [digestLanes]Digest

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

	verifyGroups atomic.Uint64
	laneMsgs     atomic.Uint64
	scalarMsgs   atomic.Uint64
	skipped      atomic.Uint64
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
	k := params.K
	cb := params.ChunkBytes()

	p := &Pipeline{
		params:   params,
		fileID:   fileID,
		rows:     gen.Stream(),
		digests:  digests,
		cb:       cb,
		workers:  workers,
		segMin:   segMin,
		rowFree:  make([][]uint32, k),
		slotFree: make([][]byte, k),
		seen:     make(map[uint64]bool, 2*k),
		echelon:  make([][]uint32, 0, k),
		pivots:   make([]int, 0, k),
		pays:     make([][]byte, k),
		parked:   make([]staged, 0, k),
		jobs:     make(chan *pipeJob, k),
		segCh:    make(chan segTask, workers*2),
		quit:     make(chan struct{}),
		jobBuf:   make([]pipeJob, k),
		tabs:     make([]gf.MulTable, k+1),
	}
	p.settled = sync.NewCond(&p.mu)
	for i := range p.groupPtr {
		p.groupPtr[i] = &p.group[i]
	}
	rowArena := make([]uint32, k*k)
	payArena := make([]byte, k*cb)
	for i := 0; i < k; i++ {
		p.rowFree[i] = rowArena[i*k : (i+1)*k : (i+1)*k]
		p.slotFree[i] = payArena[i*cb : (i+1)*cb : (i+1)*cb]
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

// Rank implements Sink: the rows verified and committed so far. Parked
// messages do not count.
func (p *Pipeline) Rank() int { return int(p.rank.Load()) }

// Done implements Sink.
func (p *Pipeline) Done() bool { return p.Rank() >= p.params.K }

// Stats implements Sink. A message is counted when its verdict is
// known, so parked ones are in no bucket yet.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Telemetry returns a snapshot of the engine counters.
func (p *Pipeline) Telemetry() PipelineTelemetry {
	return PipelineTelemetry{
		QueueDepth:       int(p.depth.Load()),
		BusyWorkers:      int(p.busy.Load()),
		Workers:          p.workers,
		Jobs:             p.jobsDone.Load(),
		Segments:         p.segsDone.Load(),
		EliminatedBytes:  p.elimBytes.Load(),
		VerifyGroups:     p.verifyGroups.Load(),
		LaneMessages:     p.laneMsgs.Load(),
		ScalarMessages:   p.scalarMsgs.Load(),
		SkippedRedundant: p.skipped.Load(),
	}
}

// Add implements Sink. It is safe for any number of concurrent
// producers. A message that passes the cheap checks is copied and
// parked, and the call returns (false, nil): its verdict is not known
// yet and lands in Stats and Rank when the group it joined is verified
// — by the Add that fills the group, on that caller's goroutine, which
// returns the verdict on its own message. Where nothing is parked
// beside it (one message needed, or no digests to check) every call is
// of that kind.
func (p *Pipeline) Add(msg *Message) (bool, error) {
	return p.stage(msg.FileID, msg.MessageID, msg.Payload)
}

// AddBytes ingests one serialized message (16-byte header + payload)
// straight from a wire frame, without unmarshaling into a Message: the
// identifiers are parsed in place and the payload is copied once,
// directly into a pooled arena slot, where it is later digested with
// its header. This is the zero-copy receive hot path: an accepted frame
// costs one memcpy and no allocations. The caller keeps ownership of
// data; it may be recycled as soon as AddBytes returns.
func (p *Pipeline) AddBytes(data []byte) (bool, error) {
	if len(data) < headerBytes {
		return false, fmt.Errorf("%w: %d bytes", ErrShortMessage, len(data))
	}
	return p.stage(binary.BigEndian.Uint64(data[0:]), binary.BigEndian.Uint64(data[8:]), data[headerBytes:])
}

// stage is the staging step behind Add and AddBytes.
func (p *Pipeline) stage(fileID, msgID uint64, payload []byte) (bool, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return false, ErrPipelineClosed
		}
		// Each arrival that can be settled on sight lands in its bucket
		// here; the rest need a slot.
		need := p.params.K - len(p.echelon)
		var err error
		onSight := true
		switch _, known := p.digests[msgID]; {
		case fileID != p.fileID:
			p.stats.Rejected++
			err = fmt.Errorf("%w: got file %d, want %d", ErrWrongFile, fileID, p.fileID)
		case len(payload) != p.cb:
			p.stats.Rejected++
			err = fmt.Errorf("%w: payload %d bytes, want %d", ErrBadParams, len(payload), p.cb)
		case p.digests != nil && !known:
			p.stats.Rejected++
			err = fmt.Errorf("%w: message-id %d", ErrBadDigest, msgID)
		case p.seen[msgID]:
			p.stats.Duplicate++
		case need == 0:
			p.stats.Redundant++
			p.skipped.Add(1)
		default:
			onSight = false
		}
		if onSight {
			p.stats.Received++
			p.mu.Unlock()
			return false, err
		}
		if p.reserved < need {
			break
		}
		// Enough is on hand to complete the generation if it all
		// verifies: hold this one, unhashed, until that is known.
		p.settled.Wait()
	}
	p.reserved++
	slot := p.slotFree[len(p.slotFree)-1]
	p.slotFree = p.slotFree[:len(p.slotFree)-1]
	p.mu.Unlock()

	copy(slot, payload)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.release(slot)
		return false, ErrPipelineClosed
	}
	p.parked = append(p.parked, staged{id: msgID, slot: slot})
	if p.verifying || len(p.parked) < p.groupLocked() {
		return false, nil
	}
	return p.settleLocked(false)
}

// groupLocked is how many parked messages make a group worth
// verifying: what the generation still needs, at most a lane pass; one
// when there is nothing to digest.
func (p *Pipeline) groupLocked() int {
	if p.digests == nil {
		return 1
	}
	return min(digestLanes, p.params.K-len(p.echelon))
}

// release returns a slot whose arrival is settled without a row.
func (p *Pipeline) release(slot []byte) {
	p.reserved--
	p.slotFree = append(p.slotFree, slot)
}

// settleLocked is stages 1 and 2: it verifies and commits parked
// messages group by group, while a full group is on hand — or, with
// all set, until nothing is parked. Called with p.mu held and nobody
// verifying; the lock is dropped around each group's digests, so
// producers keep parking meanwhile. It returns the verdict on the last
// message of the first group, which is the caller's own when the
// caller's arrival filled it.
func (p *Pipeline) settleLocked(all bool) (innovative bool, err error) {
	p.verifying = true
	for first := true; len(p.parked) > 0 && (all || len(p.parked) >= p.groupLocked()); first = false {
		g := min(len(p.parked), digestLanes)
		for i, st := range p.parked[:g] {
			p.group[i] = Message{FileID: p.fileID, MessageID: st.id, Payload: st.slot}
		}
		p.parked = p.parked[:copy(p.parked, p.parked[g:])]
		if p.digests != nil {
			p.mu.Unlock()
			lanes := DigestBatch(p.sums[:g], p.groupPtr[:g])
			p.verifyGroups.Add(1)
			p.laneMsgs.Add(uint64(lanes))
			p.scalarMsgs.Add(uint64(g - lanes))
			p.mu.Lock()
		}
		for i := 0; i < g; i++ {
			ok, cerr := p.commit(&p.group[i], p.sums[i])
			if first && i == g-1 {
				innovative, err = ok, cerr
			}
		}
	}
	p.verifying = false
	p.settled.Broadcast()
	return innovative, err
}

// commit gives one staged message its verdict, with p.mu held: its
// digest against its own entry first, then — only for an authentic
// message — the duplicate check, the coefficient row and its
// innovation, and for a surviving row the hand-off of the payload
// elimination to the job runner. The slot goes back to the free list
// unless the row is accepted.
func (p *Pipeline) commit(msg *Message, sum Digest) (bool, error) {
	slot := msg.Payload
	if p.closed {
		p.release(slot)
		return false, ErrPipelineClosed
	}
	p.stats.Received++
	if p.digests != nil && sum != p.digests[msg.MessageID] {
		p.stats.Rejected++
		p.release(slot)
		return false, fmt.Errorf("%w: message-id %d", ErrBadDigest, msg.MessageID)
	}
	if p.seen[msg.MessageID] {
		p.stats.Duplicate++
		p.release(slot)
		return false, nil
	}
	p.seen[msg.MessageID] = true
	r := len(p.echelon) // below K: a slot was only reserved while rank + reserved < K
	cand := p.rowFree[len(p.rowFree)-1]
	p.rows.RowInto(p.fileID, msg.MessageID, cand)
	job := &p.jobBuf[r]
	steps, scale, innovative := reduceRowCoeffs(p.params.Field, cand, p.echelon, p.pivots, job.steps[:0])
	if !innovative {
		p.stats.Redundant++
		p.release(slot)
		return false, nil
	}
	p.rowFree = p.rowFree[:len(p.rowFree)-1]
	p.reserved--
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
	return true, nil
}

// Settle verifies and commits whatever is parked, however few: for a
// caller whose producers have returned with the generation incomplete
// — a peer ran out of messages, a forged one left a gap — and who wants
// Rank and Stats to say how far it really got. It is the step any Add
// may run, forced early, so producers still adding are safe beside it.
// DecodeInto does this itself.
func (p *Pipeline) Settle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.verifying {
		p.settled.Wait()
	}
	if !p.closed && len(p.parked) > 0 {
		p.settleLocked(true)
	}
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

	p.Settle()
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
// pooled buffer and worker: the arena is recycled, not rebuilt, and
// messages still parked for the old generation are dropped unverified.
// digests replaces the authentication table (nil disables it).
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
	p.dropParkedLocked()
	for i, row := range p.echelon {
		p.rowFree = append(p.rowFree, row)
		p.slotFree = append(p.slotFree, p.pays[i])
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
	p.verifyGroups.Store(0)
	p.laneMsgs.Store(0)
	p.scalarMsgs.Store(0)
	p.skipped.Store(0)
	return nil
}

// dropParkedLocked returns every parked message's slot, unverified.
func (p *Pipeline) dropParkedLocked() {
	for _, st := range p.parked {
		p.release(st.slot)
	}
	p.parked = p.parked[:0]
}

// Close stops the worker pool. It drains in-flight payload jobs first
// and drops what is parked; subsequent Add and Decode calls fail with
// ErrPipelineClosed. Close is idempotent and safe to call concurrently
// with producers in Add: one waiting for a group's outcome is woken,
// one verifying a group is waited for.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.settled.Broadcast()
		for p.verifying {
			p.settled.Wait()
		}
		p.dropParkedLocked()
		p.mu.Unlock()
		p.jobsWG.Wait()
		close(p.quit)
		p.bgWG.Wait()
	})
}
