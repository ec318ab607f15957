package client

// The chunk ladder (DESIGN.md §15): the one way a generation is
// downloaded. Every link of the session set is a rung, every rung
// streams into one shared RLNC pipeline, and the chunk is done at rank
// k — whichever stream delivers the last innovative message wins, and
// duplicates are just redundant rows, so racing rungs is always safe.
// The pipeline outlives the chunk: it comes from, and returns to, the
// fetch call's free list, and is aimed at the buffer the chunk is
// returned in — its slot of the output file — so every message is
// copied into that buffer once and eliminated there.
//
// Which rungs launch is the circuit breakers' call (breaker.go). Every
// rung whose peer's breaker is closed launches at t = 0, and what it
// asks for depends on what its peer has shown (health.go): a peer whose
// frames keep arriving after STOP — nothing paces it, so STOP always
// loses the race — is asked for its share of the generation, ceil(k /
// such peers of this chunk), and ends its own stream; every other peer
// is asked for all it holds and stopped at rank k, as the paper's
// message "5" has it. When the shares have all ended and the generation
// is still short — a forged or dependent message inside one, a peer
// holding less than its share, a peer lost mid-share — or a full hedge
// delay passes without a byte, the rungs whose shares ended are asked
// again without a limit, and lose the mark that the split did not pay
// for. A quarantined peer whose cooldown has lapsed rides along as its
// single half-open probe — its rung waits out the dial if one is in
// flight, or starts it — so recovery is observed without the chunk
// depending on it; a peer still cooling down launches only when nothing
// else is left or running.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asymshare/internal/rlnc"
)

// rung tracks one peer's stream of a chunk — or two in turn, when its
// share is asked again in a second round.
type rung struct {
	link    *peerLink
	started time.Time
	bytes   atomic.Int64
	limit   uint32 // the share asked for; 0 is everything
	running bool   // ladder goroutine only
	probe   bool   // launched as its peer's half-open probe
	err     error  // written by the stream goroutine, read once its result is in
}

// pipelines is the free list of warm decode engines one fetch call owns
// (DESIGN.md §15): a chunk takes one, retargets it at its generation
// and its output, and hands it back once its rungs have all returned,
// so a manifest of n chunks builds as many engines as it has chunks in
// flight, not n.
// The engines hold the coding secret, so the list lives exactly as long
// as the call's session set and is closed with it.
type pipelines struct {
	c    *Client
	free chan *rlnc.Pipeline // capacity: the call's window
}

func (c *Client) newPipelines(window int) *pipelines {
	return &pipelines{c: c, free: make(chan *rlnc.Pipeline, window)}
}

// acquire returns an engine aimed at req's generation and at out, the
// buffer it decodes in: a parked one when its geometry fits, else —
// nothing parked, or the short last chunk — a fresh build, aimed the
// same way.
func (pl *pipelines) acquire(req FetchRequest, out []byte) (*rlnc.Pipeline, error) {
	select {
	case p := <-pl.free:
		if p.Retarget(req.Params, req.FileID, req.Digests, out) == nil {
			return p, nil
		}
		pl.free <- p // room is certain: this goroutine just took it out
	default:
	}
	pl.c.m.pipelinesBuilt.Inc()
	p, err := rlnc.NewPipeline(req.Params, req.FileID, req.Secret, req.Digests, rlnc.PipelineConfig{})
	if err != nil {
		return nil, err
	}
	if err := p.Retarget(req.Params, req.FileID, req.Digests, out); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// release parks p for the next chunk. The caller has no producer left
// in flight, which is what Retarget requires of whoever takes it next.
func (pl *pipelines) release(p *rlnc.Pipeline) {
	select {
	case pl.free <- p:
	default:
		p.Close() // an odd-geometry extra beyond the window
	}
}

// close stops every parked engine; all chunks have returned theirs.
func (pl *pipelines) close() {
	for {
		select {
		case p := <-pl.free:
			p.Close()
		default:
			return
		}
	}
}

// fetchChunk downloads the generation req names over links (req.Peers
// is not consulted) and decodes it in out, which must be exactly
// req.Params.DataLen bytes — the chunk's slot of the file being
// assembled — and is decoded in place when its capacity holds the
// generation's K chunk-vectors; nil allocates such a buffer.
func (c *Client) fetchChunk(ctx context.Context, links []*peerLink, req FetchRequest,
	pl *pipelines, out []byte) ([]byte, FetchStats, error) {
	stats := FetchStats{BytesFrom: make(map[string]uint64, len(links))}
	fail := func(err error) ([]byte, FetchStats, error) {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	if len(links) == 0 {
		return fail(ErrNoPeers)
	}
	ladder, probeFrom, coolFrom := c.health.order(links)
	if out == nil {
		out = make([]byte, req.Params.DataLen, req.Params.CapacityBytes())
	}
	sink, err := pl.acquire(req, out)
	if err != nil {
		return fail(err)
	}
	// Deferred past wg.Wait below: whoever takes the engine next finds
	// no rung of this chunk still feeding it.
	defer pl.release(sink)

	start := time.Now()
	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu          sync.Mutex // guards stats.BytesFrom
		wg          sync.WaitGroup
		progress    atomic.Int64
		rungs       = make([]*rung, len(ladder))
		results     = make(chan int, len(ladder)) // a rung has one stream at a time
		outstanding int
		sharesOut   int // running rungs that were asked for a share
	)
	launch := func(i int, limit uint32) {
		r := rungs[i]
		if r == nil {
			r = &rung{link: ladder[i], started: time.Now()}
			rungs[i] = r
		}
		r.limit, r.running = limit, true
		outstanding++
		if limit > 0 {
			sharesOut++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sreq := StreamRequest{FileID: req.FileID, Limit: limit, Priority: req.Priority}
			r.err = r.link.fetchStream(streamCtx, sreq, sink, func(fingerprint string, n int) {
				r.bytes.Add(int64(n))
				progress.Add(int64(n))
				mu.Lock()
				stats.BytesFrom[fingerprint] += uint64(n)
				mu.Unlock()
			})
			results <- i
		}()
	}
	// probe launches rung i, a probe candidate not yet launched, as its
	// peer's half-open probe. A peer with no session yet is probed all
	// the same: the rung waits in session(), which starts the dial of a
	// peer that was cooling down when the call opened its links.
	probe := func(i int) bool {
		if rungs[i] != nil || !c.health.beginProbe(ladder[i].addr) {
			return false
		}
		launch(i, 0)
		rungs[i].probe = true
		return true
	}
	// secondRound asks again, for everything, each peer whose share came
	// to its orderly end, drops the mark the share was asked under, and
	// returns how many it asked.
	secondRound := func() (n int) {
		for i, r := range rungs {
			if r != nil && r.limit > 0 && !r.running && r.err == nil {
				c.health.clearOutruns(r.link.addr)
				c.m.sharesSecondRound.Inc()
				launch(i, 0)
				n++
			}
		}
		return n
	}
	// lastResort launches every rung not launched yet, the peers the
	// breakers hold back included: nothing else is left or running.
	lastResort := func() {
		for i, r := range rungs {
			if r == nil {
				launch(i, 0)
			}
		}
	}

	limits := c.health.shares(ladder[:probeFrom], req.Params.K)
	for i := 0; i < probeFrom; i++ {
		var limit uint32
		if limits != nil {
			limit = limits[i]
		}
		launch(i, limit)
	}
	for i := probeFrom; i < coolFrom; i++ {
		probe(i)
	}
	if outstanding == 0 {
		lastResort()
	}

	delay := c.health.hedgeDelay()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var lastProgress int64
loop:
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			break loop
		case i := <-results:
			outstanding--
			r := rungs[i]
			r.running = false
			if sink.Done() {
				break loop
			}
			// The rung ended — exhausted, shed for good, or failed —
			// without completing the chunk.
			if r.limit > 0 {
				if sharesOut--; sharesOut == 0 {
					// Every share is in. Give what they left parked its
					// verdict (a rung outside the split may be verifying
					// a group this moment), and if the generation is
					// short after all, ask again.
					sink.Settle()
					if sink.Done() {
						break loop
					}
					secondRound()
				}
			}
			if outstanding == 0 {
				lastResort()
			}
		case <-timer.C:
			if progress.Load() == lastProgress && !sink.Done() {
				// A full hedge delay with not one byte of progress: ask
				// again the peers whose shares are in while another's is
				// stuck, and probe the candidates whose slot another
				// chunk has given back since. The stragglers keep
				// running — they may still win — until the chunk
				// completes and cancel() reaps them.
				n := secondRound()
				for i := probeFrom; i < coolFrom; i++ {
					if probe(i) {
						n++
					}
				}
				c.m.hedgeLaunched.Add(uint64(n))
			}
			lastProgress = progress.Load()
			timer.Reset(delay)
		}
	}
	cancel()
	wg.Wait()
	stats.Elapsed = time.Since(start)

	// Every rung has returned. A generation that fell short may still
	// hold arrivals parked for a verify group that never filled; give
	// them their verdicts so rank and stats say how far it really got.
	sink.Settle()
	completed := sink.Done()
	c.classify(rungs, completed)

	for _, r := range rungs {
		// A share asked again in a second round has limit 0 by now.
		if completed && r != nil && r.limit > 0 && r.err == nil {
			c.m.sharesComplete.Inc()
		}
	}

	st := sink.Stats()
	stats.Messages = st.Received
	stats.Innovative = st.Accepted
	stats.Rejected = st.Rejected

	if !completed {
		err := ctx.Err()
		if err == nil {
			errs := make([]error, 0, len(rungs))
			for _, r := range rungs {
				if r != nil {
					errs = append(errs, r.err)
				}
			}
			err = fmt.Errorf("%w: rank %d of %d (%s)",
				ErrIncomplete, sink.Rank(), req.Params.K, joinErrs(errs))
		}
		return fail(err)
	}
	if err := sink.DecodeInto(out); err != nil {
		return fail(err)
	}
	c.m.recordFetch(stats, len(out), nil)
	c.m.recordDecodeTelemetry(sink.Telemetry())
	return out, stats, nil
}

// classify folds every launched rung's final outcome into the health
// registry (attempts a link retried were observed as they happened).
// Called after wg.Wait, so err fields are settled. A peer that
// contributed nothing to a chunk the others finished has not failed: at
// the paper's 256 kbit/s one 128 KiB message takes four seconds.
func (c *Client) classify(rungs []*rung, completed bool) {
	for _, r := range rungs {
		if r == nil {
			continue
		}
		addr := r.link.addr
		switch {
		case errors.Is(r.err, context.Canceled), errors.Is(r.err, context.DeadlineExceeded):
			// Reaped before it had a session, or while it waited out a
			// shed: no evidence either way. A probe reaped waiting on
			// its dial hands its slot back for the next chunk to try
			// (one that waited out a shed has closed the breaker).
			if r.probe {
				c.health.endProbe(addr)
			}
		case r.err != nil:
			c.observe(addr, r.err)
		case completed && r.bytes.Load() > 0:
			c.health.recordSuccess(addr, time.Since(r.started))
		default:
			// Exhausted its stored messages or arrived too late to
			// matter: liveness proven, no latency sample.
			c.observe(addr, nil)
		}
	}
}
