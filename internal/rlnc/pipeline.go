package rlnc

// Pipeline is the parallel decode engine (DESIGN.md §9). It splits the
// work the sequential Decoder does under one caller into a staging step
// and three stages with very different costs:
//
//  0. stage    — the cheap checks (file-id, length, a digest on record
//                for the message-id, not a repeat of a verified id) and
//                the one copy of the payload into a slot of the output
//                buffer, on the calling producer; the message is then
//                parked, and the producer returns without a verdict;
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
//                to the engine's one goroutine, a serial job runner
//                that replays each job over the row's whole
//                chunk-vector with per-factor split product tables
//                (gf.MulTable). Decodes run side by side one level up,
//                a pipeline per chunk in flight (DESIGN.md §9).
//
// A parked message is not yet trusted: it has no row, is not counted in
// Rank or Stats, and no byte of it is read by stage 3 until its digest
// has matched. Arrivals beyond what the generation needs do not park:
// they wait for the group's outcome and, if it completed the
// generation, are settled redundant without being hashed.
//
// The payload slots are the output (DESIGN.md §9): the engine is aimed
// at the buffer the generation will be returned in, K chunk-vectors of
// capacity, and carves its K slots from it in ascending order, so every
// row is eliminated where it will be read. Once solved, row i holds
// original vector pivot(i); where that is not the slot it landed in — a
// forged or redundant arrival gave its slot back, two producers parked
// in the other order — DecodeInto moves the blocks into place, cycle by
// cycle, through one chunk-vector of scratch. Every other buffer on the
// steady-state path — K coefficient rows (parked plus committed never
// exceeds K), the group scratch, job and step storage, product tables —
// is preallocated at construction and recycled through free lists, so
// an accepted message allocates nothing.
//
// Because stage 2 records the exact factor sequence the sequential
// Decoder would apply to the same messages in the same order and GF
// arithmetic is exact, the decoded output is byte-identical to
// Decoder's on any input stream.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"asymshare/internal/gf"
)

// ErrPipelineClosed is returned by Add and Decode after Close.
var ErrPipelineClosed = errors.New("rlnc: pipeline closed")

// PipelineConfig has no fields: the engine has nothing to tune. It is
// kept as NewPipeline's last argument so existing callers, which pass
// PipelineConfig{}, compile unchanged.
type PipelineConfig struct{}

// PipelineTelemetry is a snapshot of the engine's counters, exported
// so the client can surface decode work as metrics.
type PipelineTelemetry struct {
	Jobs            uint64 // payload jobs completed
	EliminatedBytes uint64 // payload bytes processed by row operations

	VerifyGroups     uint64 // parked groups digested and settled
	LaneMessages     uint64 // messages digested in the eight-lane kernel
	ScalarMessages   uint64 // messages digested one at a time
	SkippedRedundant uint64 // arrivals settled redundant unhashed: the generation was complete

	FixupBlocks uint64 // decoded chunk-vectors moved into place: they were eliminated in another row's slot
}

// staged is one parked arrival: its message-id and the index of the
// slot its payload was copied into.
type staged struct {
	id   uint64
	slot int32
}

// pipeJob is one row's payload elimination: replay steps (and the
// final pivot normalization scale) over the payload in slot dst.
type pipeJob struct {
	dst   int32
	scale uint32
	steps []elimStep
}

// Pipeline implements Sink with concurrent producers and payload
// elimination on a goroutine of its own. Construct with NewPipeline,
// aim it at the generation's output buffer with Retarget, feed it from
// any number of goroutines, then call DecodeInto once Done; Retarget it
// at the next generation of the same geometry as often as wanted, and
// Close when finished with it. An engine nobody aimed draws its own
// output at its first arrival, and Decode hands that over.
type Pipeline struct {
	params  Params
	fileID  uint64
	rows    *RowStream // used under mu, by whoever settles a group
	digests map[uint64]Digest
	cb      int // ChunkBytes

	mu       sync.Mutex
	settled  *sync.Cond // a group has been settled, or the engine closed
	rowFree  [][]uint32
	out      []byte  // the output, K × cb: aimed by Retarget, or drawn at the first arrival
	slotFree []int32 // free slot indices, the lowest on top
	seen     map[uint64]bool
	echelon  [][]uint32
	pivots   []int
	rowSlot  []int32 // slot of each echelon row's payload, fixed K entries
	stats    Stats
	closed   bool

	// Staging. reserved counts slots held by arrivals that have
	// no verdict yet — being copied, parked, or in the group being
	// verified — and never exceeds K − rank, so rank + reserved ≤ K
	// and the free lists cannot run dry.
	reserved  int
	parked    []staged // copied and waiting, in arrival order
	verifying bool     // a producer is settling groups; it alone uses group/groupSlot/sums
	group     [digestLanes]Message
	groupPtr  [digestLanes]*Message
	groupSlot [digestLanes]int32
	sums      [digestLanes]Digest

	rank atomic.Int64

	decodeMu sync.Mutex // guards solved, the fix-up's maps and scratch
	solved   bool
	slotRow  []int32 // fix-up: the row in each slot
	pivotRow []int32 // fix-up: the row each original vector was solved in
	scratch  []byte  // fix-up: one chunk-vector, drawn by the first cycle

	jobs   chan *pipeJob
	jobsWG sync.WaitGroup
	quit   chan struct{}
	bgWG   sync.WaitGroup
	jobBuf []pipeJob
	tabs   []gf.MulTable // runner-owned: one per step of the current job, +1 for scale

	closeOnce sync.Once

	jobsDone  atomic.Uint64
	elimBytes atomic.Uint64

	verifyGroups atomic.Uint64
	laneMsgs     atomic.Uint64
	scalarMsgs   atomic.Uint64
	skipped      atomic.Uint64
	fixups       atomic.Uint64
}

// NewPipeline prepares a parallel decoder for one generation, mirroring
// NewDecoder's contract: digests, if non-nil, enables per-message
// authentication. The engine is aimed at no buffer yet: Retarget aims
// it, or its first arrival draws one. The returned pipeline owns one
// background goroutine, the job runner; callers must Close it.
func NewPipeline(params Params, fileID uint64, secret []byte, digests map[uint64]Digest, _ PipelineConfig) (*Pipeline, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	gen, err := NewCoeffGenerator(params.Field, params.K, secret)
	if err != nil {
		return nil, err
	}
	k := params.K
	cb := params.ChunkBytes()

	p := &Pipeline{
		params:   params,
		fileID:   fileID,
		rows:     gen.Stream(),
		digests:  digests,
		cb:       cb,
		rowFree:  make([][]uint32, k),
		slotFree: make([]int32, 0, k),
		seen:     make(map[uint64]bool, 2*k),
		echelon:  make([][]uint32, 0, k),
		pivots:   make([]int, 0, k),
		rowSlot:  make([]int32, k),
		slotRow:  make([]int32, k),
		pivotRow: make([]int32, k),
		parked:   make([]staged, 0, k),
		jobs:     make(chan *pipeJob, k),
		quit:     make(chan struct{}),
		jobBuf:   make([]pipeJob, k),
		tabs:     make([]gf.MulTable, k+1),
	}
	p.settled = sync.NewCond(&p.mu)
	for i := range p.groupPtr {
		p.groupPtr[i] = &p.group[i]
	}
	rowArena := make([]uint32, k*k)
	for i := 0; i < k; i++ {
		p.rowFree[i] = rowArena[i*k : (i+1)*k : (i+1)*k]
	}
	p.freeAllSlots()
	stepArena := make([]elimStep, k*k)
	for i := range p.jobBuf {
		p.jobBuf[i].steps = stepArena[i*k : i*k : (i+1)*k]
	}

	p.bgWG.Add(1)
	go p.runner()
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
		Jobs:             p.jobsDone.Load(),
		EliminatedBytes:  p.elimBytes.Load(),
		VerifyGroups:     p.verifyGroups.Load(),
		LaneMessages:     p.laneMsgs.Load(),
		ScalarMessages:   p.scalarMsgs.Load(),
		SkippedRedundant: p.skipped.Load(),
		FixupBlocks:      p.fixups.Load(),
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
// directly into a slot of the output buffer, where it is later digested
// with its header and eliminated. This is the zero-copy receive hot
// path: an accepted frame costs one memcpy and no allocations. The
// caller keeps ownership of data; it may be recycled as soon as
// AddBytes returns.
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
	if p.out == nil {
		p.out = make([]byte, p.params.CapacityBytes())
	}
	s := p.slotFree[len(p.slotFree)-1]
	p.slotFree = p.slotFree[:len(p.slotFree)-1]
	slot := p.slot(s)
	p.mu.Unlock()

	copy(slot, payload)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.release(s)
		return false, ErrPipelineClosed
	}
	p.parked = append(p.parked, staged{id: msgID, slot: s})
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

// slot is slot s of the output: chunk-vector s of the generation, and
// the payload of whichever arrival holds it.
func (p *Pipeline) slot(s int32) []byte {
	lo := int(s) * p.cb
	return p.out[lo : lo+p.cb : lo+p.cb]
}

// freeAllSlots puts every slot on the free list, slot 0 on top, so
// arrivals take them in ascending order.
func (p *Pipeline) freeAllSlots() {
	p.slotFree = p.slotFree[:0]
	for s := p.params.K - 1; s >= 0; s-- {
		p.slotFree = append(p.slotFree, int32(s))
	}
}

// release returns a slot whose arrival is settled without a row.
func (p *Pipeline) release(s int32) {
	p.reserved--
	p.slotFree = append(p.slotFree, s)
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
			p.group[i] = Message{FileID: p.fileID, MessageID: st.id, Payload: p.slot(st.slot)}
			p.groupSlot[i] = st.slot
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
			ok, cerr := p.commit(&p.group[i], p.groupSlot[i], p.sums[i])
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
// elimination to the job runner. Slot s, which holds msg.Payload, goes
// back to the free list unless the row is accepted.
func (p *Pipeline) commit(msg *Message, slot int32, sum Digest) (bool, error) {
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
	p.rowSlot[r] = slot
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

// runner serializes payload jobs, one at a time in enqueue order.
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

// runJob builds the job's per-factor product tables, then replays its
// recorded row operations over the row's whole chunk-vector. Reads of
// p.rowSlot entries are ordered by the jobs channel send that happens
// after the rows were committed under p.mu.
func (p *Pipeline) runJob(job *pipeJob) {
	f := p.params.Field
	n := len(job.steps)
	for s := 0; s < n; s++ {
		p.tabs[s].Init(f, job.steps[s].factor)
	}
	dst := p.slot(p.rowSlot[job.dst])
	for s := 0; s < n; s++ {
		p.tabs[s].MulAdd(dst, p.slot(p.rowSlot[job.steps[s].src]))
	}
	if job.scale != 1 {
		p.tabs[n].Init(f, job.scale)
		p.tabs[n].Mul(dst)
	}
	p.elimBytes.Add(uint64(p.cb * (n + 1)))
	p.jobsDone.Add(1)
	p.jobsWG.Done()
}

// Decode completes the generation and returns the original data,
// trimmed to params.DataLen: the buffer the engine was aimed at, or the
// one it drew itself, handed over without a copy. It returns
// ErrNotDecodable if rank < k.
func (p *Pipeline) Decode() ([]byte, error) {
	return p.solve()
}

// DecodeInto completes the generation in out, which must be DataLen
// bytes: the buffer the engine was aimed at, where nothing is left to
// do but move any chunk-vector eliminated in another row's slot into
// place. Any other buffer receives one copy of the data.
func (p *Pipeline) DecodeInto(out []byte) error {
	if len(out) != p.params.DataLen {
		return fmt.Errorf("%w: output %d bytes, want %d", ErrBadParams, len(out), p.params.DataLen)
	}
	data, err := p.solve()
	if err != nil {
		return err
	}
	if len(out) > 0 && &out[0] != &data[0] {
		copy(out, data)
	}
	return nil
}

// solve finishes the elimination, puts every row in its place and
// returns the output trimmed to DataLen. It is idempotent.
func (p *Pipeline) solve() ([]byte, error) {
	p.decodeMu.Lock()
	defer p.decodeMu.Unlock()

	p.Settle()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPipelineClosed
	}
	rank := len(p.echelon)
	p.mu.Unlock()
	k := p.params.K
	if rank < k {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrNotDecodable, rank, k)
	}
	// Drain forward elimination. Rank is full, so no new payload jobs
	// can be enqueued concurrently, and no slot is held by an arrival
	// without a row: the K rows own the whole output.
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
			p.jobs <- job
		}
		p.jobsWG.Wait()
		p.placeRows()
		p.solved = true
	}
	return p.out[:p.params.DataLen], nil
}

// placeRows is the fix-up: row r now holds original chunk-vector
// pivots[r], and every one that was eliminated in another slot is moved
// into its own. The rows' slots are a permutation of the K slots, so
// each cycle of it is walked once: the first slot's vector is lifted
// into scratch, each hole is filled from the slot holding the vector
// that belongs there, and the lifted one fills the last. Arrivals that
// were taken in order, one at a time, and all committed, move nothing.
func (p *Pipeline) placeRows() {
	k := p.params.K
	for r := 0; r < k; r++ {
		p.slotRow[p.rowSlot[r]] = int32(r)
		p.pivotRow[p.pivots[r]] = int32(r)
	}
	moved := 0
	for start := int32(0); start < int32(k); start++ {
		lifted := p.slotRow[start]
		if p.pivots[lifted] == int(start) {
			continue
		}
		if p.scratch == nil {
			p.scratch = make([]byte, p.cb)
		}
		copy(p.scratch, p.slot(start))
		hole := start
		for {
			r := p.pivotRow[hole] // the row whose vector belongs in hole
			if r == lifted {
				break
			}
			src := p.rowSlot[r]
			copy(p.slot(hole), p.slot(src))
			p.rowSlot[r], p.slotRow[hole] = hole, r
			moved++
			hole = src
		}
		copy(p.slot(hole), p.scratch)
		p.rowSlot[lifted], p.slotRow[hole] = hole, lifted
		moved++
	}
	p.fixups.Add(uint64(moved))
}

// Retarget points the engine at another generation of the same
// geometry — same field, K and chunk-vector size; DataLen may differ —
// keeping the secret and with it the coefficient generator, every
// pooled buffer and the job runner; messages still parked for the old
// generation are dropped unverified. digests replaces the
// authentication table (nil disables it). out aims the engine: it is
// the generation's output, DataLen bytes, and the K payload slots are
// carved from its first K chunk-vectors of capacity, so it is decoded
// where it will be read. An out whose capacity is short of that, or
// nil, aims it nowhere: the first arrival draws a buffer, and
// DecodeInto copies out of it. The previous output is no longer
// referenced — it is its owner's again.
// A different geometry is refused with ErrBadParams and leaves the
// engine untouched; build a fresh pipeline for it. The caller must
// ensure no Add or Decode is in flight — every producer of the previous
// generation has returned — and frames still addressed to the old
// file-id are thereafter ErrWrongFile like any other foreign message.
func (p *Pipeline) Retarget(params Params, fileID uint64, digests map[uint64]Digest, out []byte) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if params.Field.Bits() != p.params.Field.Bits() || params.K != p.params.K || params.ChunkBytes() != p.cb {
		return fmt.Errorf("%w: retarget %v onto a pipeline built for %v", ErrBadParams, params, p.params)
	}
	if out != nil && len(out) != params.DataLen {
		return fmt.Errorf("%w: output %d bytes, want %d", ErrBadParams, len(out), params.DataLen)
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
	p.out = nil
	if n := params.CapacityBytes(); cap(out) >= n {
		p.out = out[:n]
	}
	clear(p.seen)
	p.dropParkedLocked()
	for i, row := range p.echelon {
		p.rowFree = append(p.rowFree, row)
		p.echelon[i] = nil
	}
	p.freeAllSlots()
	p.echelon = p.echelon[:0]
	p.pivots = p.pivots[:0]
	p.stats = Stats{}
	p.solved = false
	p.rank.Store(0)
	p.jobsDone.Store(0)
	p.elimBytes.Store(0)
	p.verifyGroups.Store(0)
	p.laneMsgs.Store(0)
	p.scalarMsgs.Store(0)
	p.skipped.Store(0)
	p.fixups.Store(0)
	return nil
}

// dropParkedLocked returns every parked message's slot, unverified.
func (p *Pipeline) dropParkedLocked() {
	for _, st := range p.parked {
		p.release(st.slot)
	}
	p.parked = p.parked[:0]
}

// Close stops the job runner. It drains in-flight payload jobs first
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
