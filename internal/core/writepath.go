package core

// The write path (DESIGN.md §9, "Write path"): every share entry point
// — flat, ring-placed, gossip-seeded — runs the same bounded pipeline at
// (destination, generation) granularity instead of minting a
// destination's whole batch and then waiting it out:
//
//	jobs ──► encode workers ──► per-destination sender ──► collector
//	         (≤ GOMAXPROCS)      (one connection each)      (the caller)
//
// A worker takes a free batch slot, mints one generation's batch for
// one destination into the slot's payload buffers and digests it; the
// destination's sender puts the batch on its connection and waits for
// the acknowledgements; the collector — the calling goroutine, and the
// only writer of Manifest.Digests — records the digests and frees the
// slot. Slots are the in-flight bound: minted-but-unacknowledged data
// never exceeds their fixed number. The manifest's end-to-end check —
// a Sum per chunk — is chunk.BuildShare's, there before the first job.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
)

// shareInFlightBytes caps minted-but-unacknowledged payload. A plan
// whose single generation is larger than half of it still gets two
// slots, the least that lets encode overlap dissemination.
const shareInFlightBytes = 4 << 20

// shareJob asks for generation chunk's batch for the holder with batch
// index rank, delivered to destination dest.
type shareJob struct{ dest, chunk, rank int }

// batchSink is one destination: put delivers one generation's batch
// and returns once it is safely there; done ends the session after the
// last batch. Both run on the destination's sender goroutine only.
type batchSink struct {
	put  func(info *chunk.ChunkInfo, msgs []*rlnc.Message) error
	done func() error
}

// batchSlot holds one minted generation batch. The payload buffers are
// allocated once per share and reused batch after batch.
type batchSlot struct {
	buf     []byte
	store   []rlnc.Message
	msgs    []*rlnc.Message // &store[j], the first n valid
	ids     []uint64
	digests []rlnc.Digest
	chunk   int
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
// messages encoded, then digested with one call.
func (b *batchSlot) mint(chunkIdx int, enc *rlnc.Encoder, rank int) error {
	p := enc.Params()
	var err error
	if b.ids, err = enc.AppendBatchIDs(b.ids[:0], rank, p.K); err != nil {
		return err
	}
	cb := p.ChunkBytes()
	b.chunk = chunkIdx
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

// streamShare runs jobs through the pipeline against ndest
// destinations, each opened by open on its own sender goroutine, and
// records every delivered message's digest in share.Manifest. It
// returns the messages and message bytes delivered. On the first error
// — a destination failing, or ctx ending — the siblings are cancelled,
// that error is returned, and no goroutine outlives the call.
func streamShare(ctx context.Context, share *chunk.Share, ndest int, jobs []shareJob,
	open func(ctx context.Context, dest int) (batchSink, error)) (int, int64, error) {
	if len(jobs) == 0 {
		return 0, 0, nil
	}
	kmax, chunkBytes := 0, 0
	for i := 0; i < share.NumChunks(); i++ {
		p := share.Encoder(i).Params()
		kmax = max(kmax, p.K)
		chunkBytes = max(chunkBytes, p.ChunkBytes())
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

	for w := 0; w < workers; w++ {
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
				if err := slot.mint(job.chunk, share.Encoder(job.chunk), job.rank); err != nil {
					cancel(fmt.Errorf("core: chunk %d rank %d: %w", job.chunk, job.rank, err))
					return
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
			sink, err := open(ctx, d)
			if err != nil {
				cancel(err)
				return
			}
			for slot := range queues[d] {
				if err := sink.put(&share.Manifest.Chunks[slot.chunk], slot.msgs); err != nil {
					cancel(err)
					break
				}
				select {
				case delivered <- slot:
				case <-ctx.Done():
				}
			}
			// After a failure this only closes the connection; the first
			// error is already the cause.
			if err := sink.done(); err != nil {
				cancel(err)
			}
		}(d)
	}

	sent, bytes := 0, int64(0)
	for slot := range delivered {
		digests := share.Manifest.Chunks[slot.chunk].Digests
		for j, m := range slot.msgs {
			digests[m.MessageID] = slot.digests[j]
			bytes += int64(len(m.Payload) + rlnc.MessageHeaderBytes)
		}
		sent += len(slot.msgs)
		free <- slot
	}
	wg.Wait()
	return sent, bytes, context.Cause(ctx)
}

// uploadSinks opens one client upload per destination address.
func (s *System) uploadSinks(addrs []string) func(ctx context.Context, dest int) (batchSink, error) {
	return func(ctx context.Context, dest int) (batchSink, error) {
		addr := addrs[dest]
		wrap := func(err error) error {
			if err != nil {
				return fmt.Errorf("core: disseminate to %s: %w", addr, err)
			}
			return nil
		}
		u, err := s.client.OpenUpload(ctx, addr)
		if err != nil {
			return batchSink{}, wrap(err)
		}
		return batchSink{
			put:  func(_ *chunk.ChunkInfo, msgs []*rlnc.Message) error { return wrap(u.Put(msgs)) },
			done: func() error { return wrap(u.Close()) },
		}, nil
	}
}
