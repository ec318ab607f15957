package core

// The write path (DESIGN.md §9, "Write path"): everything the owner
// sends to peers — a share (flat or ring-placed), an update's deltas,
// a repair's re-minted batches — runs the same bounded pipeline at
// (destination, generation) granularity:
//
//	jobs ──► encode workers ──► per-destination sender ──► collector
//	         (≤ GOMAXPROCS)      (one connection each)      (the caller)
//
// A worker takes a free batch slot, mints one generation's batch for
// one destination into the slot's payload buffers and digests it (a
// patch job then turns the batch into its deltas from the old version);
// the destination's sender puts or patches the batch on its connection
// and waits for the acknowledgements; the collector — the calling
// goroutine, and the only writer of the manifest — records the
// acknowledged batch's digests, publishes a chunk's new Sum once the
// chunk's last job is delivered, and frees the slot. Slots are the
// in-flight bound: minted-but-unacknowledged data never exceeds their
// fixed number.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// shareInFlightBytes caps minted-but-unacknowledged payload. A plan
// whose single generation is larger than half of it still gets two
// slots, the least that lets encode overlap dissemination.
const shareInFlightBytes = 4 << 20

// shareJob asks for generation chunk's batch for the holder with batch
// index rank, delivered to destination dest: stored with a PUT or, when
// patch is set, sent as the deltas that carry the holder's copy from
// the old version to the new and applied with a PATCH.
type shareJob struct {
	dest, chunk, rank int
	patch             bool
}

// writeSet is what one run of the pipeline mints from and records into:
// the manifest, and per chunk the encoder of the version the holders
// are to hold (nil for a chunk no job names), the delta encoder from
// the version they hold now (patch jobs only), and the Sum the chunk
// gets once its last job is delivered (nil sums: every Sum stays).
type writeSet struct {
	m      *chunk.Manifest
	encs   []*rlnc.Encoder
	deltas []*rlnc.DeltaEncoder
	sums   []rlnc.Digest
}

// batchSlot holds one minted generation batch. The payload buffers are
// allocated once per run and reused batch after batch.
type batchSlot struct {
	buf     []byte
	store   []rlnc.Message
	msgs    []*rlnc.Message // what to send: &store[j], the first n valid
	ids     []uint64
	digests []rlnc.Digest // digests[j] is the new version's digest of msgs[j]
	chunk   int
	patch   bool
}

func newBatchSlot(k, chunkBytes int) *batchSlot {
	return &batchSlot{
		buf:     make([]byte, k*chunkBytes),
		store:   make([]rlnc.Message, k),
		msgs:    make([]*rlnc.Message, 0, k),
		ids:     make([]uint64, 0, k),
		digests: make([]rlnc.Digest, k),
	}
}

// mint fills the slot with enc's batch for the given holder rank: k
// messages minted one at a time, then digested with one call.
func (b *batchSlot) mint(chunkIdx int, enc *rlnc.Encoder, rank int) error {
	p := enc.Params()
	var err error
	if b.ids, err = enc.AppendBatchIDs(b.ids[:0], rank, p.K); err != nil {
		return err
	}
	cb := p.ChunkBytes()
	b.chunk, b.patch = chunkIdx, false
	b.msgs = b.msgs[:0]
	for j, id := range b.ids {
		m := &b.store[j]
		m.FileID, m.MessageID, m.Payload = enc.FileID(), id, b.buf[j*cb:(j+1)*cb]
		enc.MessageInto(id, m.Payload)
		b.msgs = append(b.msgs, m)
	}
	rlnc.DigestBatch(b.digests, b.msgs)
	return nil
}

// toDeltas turns the freshly minted new-version batch into the deltas
// that patch the old version's: each payload is overwritten in place,
// and the all-zero ones — messages the change leaves as they are — are
// dropped along with their digests.
func (b *batchSlot) toDeltas(delta *rlnc.DeltaEncoder) {
	n := 0
	for j, m := range b.msgs {
		delta.DeltaInto(m.MessageID, m.Payload)
		if !gf.IsZeroSlice(m.Payload) {
			b.msgs[n], b.digests[n] = m, b.digests[j]
			n++
		}
	}
	b.msgs = b.msgs[:n]
	b.patch = true
}

// streamShare runs jobs minted from share, what chunk.BuildShare made,
// through the pipeline.
func streamShare(ctx context.Context, cl *client.Client, share *chunk.Share, addrs []string, jobs []shareJob) (int, int64, error) {
	w := writeSet{m: &share.Manifest, encs: make([]*rlnc.Encoder, share.NumChunks())}
	for i := range w.encs {
		w.encs[i] = share.Encoder(i)
	}
	return w.stream(ctx, cl, addrs, jobs)
}

// stream runs jobs through the pipeline against the destinations
// addrs (a job's dest indexes them), each sent to over one client
// upload opened on its own sender goroutine, and records every
// delivered message's digest in w.m. It returns the messages and
// message bytes delivered. On the first error — a destination failing,
// or ctx ending — the siblings are cancelled, that error is returned,
// and no goroutine outlives the call. Every batch a peer acknowledged
// is recorded all the same, and a chunk gets its new Sum only if every
// job for it was delivered.
func (w *writeSet) stream(ctx context.Context, cl *client.Client, addrs []string, jobs []shareJob) (int, int64, error) {
	if len(jobs) == 0 {
		return 0, 0, nil
	}
	ndest := len(addrs)
	kmax, chunkBytes := 0, 0
	for _, enc := range w.encs {
		if enc != nil {
			kmax = max(kmax, enc.Params().K)
			chunkBytes = max(chunkBytes, enc.Params().ChunkBytes())
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	nslots := max(2, min(workers+ndest, shareInFlightBytes/(kmax*chunkBytes)))

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	free := make(chan *batchSlot, nslots) // every slot fits: returning one never blocks
	for i := 0; i < nslots; i++ {
		free <- newBatchSlot(kmax, chunkBytes)
	}
	queues := make([]chan *batchSlot, ndest)
	for i := range queues {
		queues[i] = make(chan *batchSlot)
	}
	delivered := make(chan *batchSlot)

	var (
		wg          sync.WaitGroup
		nextJob     atomic.Int64
		workersLeft atomic.Int64
		sendersLeft atomic.Int64
	)
	workersLeft.Store(int64(workers))
	sendersLeft.Store(int64(ndest))

	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if workersLeft.Add(-1) == 0 {
					for _, q := range queues {
						close(q)
					}
				}
			}()
			for {
				i := int(nextJob.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				job := jobs[i]
				var slot *batchSlot
				select {
				case slot = <-free:
				case <-ctx.Done():
					return
				}
				if err := slot.mint(job.chunk, w.encs[job.chunk], job.rank); err != nil {
					cancel(fmt.Errorf("core: chunk %d rank %d: %w", job.chunk, job.rank, err))
					return
				}
				if job.patch {
					slot.toDeltas(w.deltas[job.chunk])
				}
				select {
				case queues[job.dest] <- slot:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	for d := 0; d < ndest; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			defer func() {
				if sendersLeft.Add(-1) == 0 {
					close(delivered)
				}
			}()
			fail := func(err error) { cancel(fmt.Errorf("core: upload to %s: %w", addrs[d], err)) }
			u, err := cl.OpenUpload(ctx, addrs[d])
			if err != nil {
				fail(err)
				return
			}
			for slot := range queues[d] {
				if slot.patch {
					err = u.Patch(slot.msgs)
				} else {
					err = u.Put(slot.msgs)
				}
				if err != nil {
					fail(err)
					break
				}
				delivered <- slot // the collector drains until the last sender is gone
			}
			// After a failure this only closes the connection; the first
			// error is already the cause.
			if err := u.Close(); err != nil {
				fail(err)
			}
		}(d)
	}

	left := make([]int, len(w.m.Chunks)) // undelivered jobs per chunk
	for _, job := range jobs {
		left[job.chunk]++
	}
	sent, bytes := 0, int64(0)
	for slot := range delivered {
		info := &w.m.Chunks[slot.chunk]
		for j, m := range slot.msgs {
			if info.Digests != nil { // a manifest without digests stays unauthenticated
				info.Digests[m.MessageID] = slot.digests[j]
			}
			bytes += int64(len(m.Payload) + rlnc.MessageHeaderBytes)
		}
		sent += len(slot.msgs)
		left[slot.chunk]--
		if left[slot.chunk] == 0 && w.sums != nil {
			info.Sum = w.sums[slot.chunk]
		}
		free <- slot
	}
	wg.Wait()
	return sent, bytes, context.Cause(ctx)
}

// destSet numbers the distinct addresses a run sends to in order of
// first appearance: one destination, and one connection, per address.
type destSet struct {
	addrs []string
	index map[string]int
}

func (d *destSet) of(addr string) int {
	i, ok := d.index[addr]
	if !ok {
		if d.index == nil {
			d.index = make(map[string]int)
		}
		i = len(d.addrs)
		d.index[addr] = i
		d.addrs = append(d.addrs, addr)
	}
	return i
}
