package client

// The chunk ladder (DESIGN.md §15): the one way a generation is
// downloaded. Every link of the session set is a rung, every rung
// streams into one shared RLNC pipeline, and the chunk is done at rank
// k — whichever stream delivers the last innovative message wins, and
// duplicates are just redundant rows, so racing rungs is always safe.
// The pipeline outlives the chunk: it comes from, and returns to, the
// fetch call's free list, and decodes straight into the chunk's slot of
// the output file.
//
// Unhedged, every rung launches at t = 0 and breakers are ignored. What
// a rung asks for depends on what its peer has shown (health.go): a
// peer whose frames keep arriving after STOP — nothing paces it, so
// STOP always loses the race — is asked for its share of the
// generation, ceil(k / such peers of this chunk), and ends its own
// stream; every other peer is asked for all it holds and stopped at
// rank k, as the paper's message "5" has it. When the shares have all
// ended and the generation is still short — a forged or dependent
// message inside one, a peer holding less than its share, a peer lost
// mid-share — or a full hedge delay passes without a byte, the rungs
// whose shares ended are asked again without a limit, and lose the mark
// that the split did not pay for.
//
// With Options.Hedge the rungs are ranked by health and launched one at
// a time: the chunk starts on the single healthiest peer, and only when
// no byte arrives for a full hedge delay (p95-based, health.go), or a
// rung ends without completing the chunk, is it re-issued on the next.
// Quarantined peers whose breaker cooldown has lapsed ride along as
// half-open probes so recovery is observed without risking the chunk
// on them, and a ladder that runs dry launches whatever it has not yet
// tried — quarantined or not — before giving up.

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
	err     error  // written by the stream goroutine, read once its result is in
}

// pipelines is the free list of warm decode engines one fetch call owns
// (DESIGN.md §15): a chunk takes one, retargets it at its generation,
// and hands it back once its rungs have all returned, so a manifest of
// n chunks builds as many engines as it has chunks in flight, not n.
// The engines hold the coding secret, so the list lives exactly as long
// as the call's session set and is closed with it.
type pipelines struct {
	c    *Client
	free chan *rlnc.Pipeline // capacity: the call's window
}

func (c *Client) newPipelines(window int) *pipelines {
	return &pipelines{c: c, free: make(chan *rlnc.Pipeline, window)}
}

// acquire returns an engine aimed at req's generation: a parked one
// when its geometry fits, else — nothing parked, or the short last
// chunk — a fresh build.
func (pl *pipelines) acquire(req FetchRequest) (*rlnc.Pipeline, error) {
	select {
	case p := <-pl.free:
		if p.Retarget(req.Params, req.FileID, req.Digests) == nil {
			return p, nil
		}
		pl.free <- p // room is certain: this goroutine just took it out
	default:
	}
	pl.c.m.pipelinesBuilt.Inc()
	return rlnc.NewPipeline(req.Params, req.FileID, req.Secret, req.Digests, rlnc.PipelineConfig{})
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
// is not consulted) and decodes it into out, which must be exactly
// req.Params.DataLen bytes — the chunk's slot of the file being
// assembled; nil allocates. rotate — the chunk index — spreads
// concurrent hedged chunks across equally healthy peers.
func (c *Client) fetchChunk(ctx context.Context, links []*peerLink, rotate int, req FetchRequest,
	pl *pipelines, out []byte) ([]byte, FetchStats, error) {
	stats := FetchStats{BytesFrom: make(map[string]uint64, len(links))}
	fail := func(err error) ([]byte, FetchStats, error) {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	if len(links) == 0 {
		return fail(ErrNoPeers)
	}
	ladder, probeFrom, coolFrom := links, len(links), len(links)
	if c.opt.Hedge {
		ladder, probeFrom, coolFrom = c.health.order(links, rotate)
	}
	sink, err := pl.acquire(req)
	if err != nil {
		return fail(err)
	}
	// Deferred past wg.Wait below: whoever takes the engine next finds
	// no rung of this chunk still feeding it.
	defer pl.release(sink)
	stopSampling := c.m.sampleDecode(sink.Telemetry)

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
	// launchNext re-issues the chunk on the first unlaunched rung below
	// limit.
	launchNext := func(limit int) bool {
		for i := 0; i < limit; i++ {
			if rungs[i] == nil {
				launch(i, 0)
				return true
			}
		}
		return false
	}
	// secondRound asks again, for everything, each peer whose share came
	// to its orderly end, and drops the mark the share was asked under.
	secondRound := func() {
		for i, r := range rungs {
			if r != nil && r.limit > 0 && !r.running && r.err == nil {
				c.health.clearOutruns(r.link.addr)
				c.m.sharesSecondRound.Inc()
				launch(i, 0)
			}
		}
	}

	if c.opt.Hedge {
		// One primary plus every claimable half-open probe. The probes
		// are why a quarantined peer can ever be observed recovering:
		// its single post-cooldown stream runs alongside a healthy
		// primary, so the chunk never depends on it. Only a peer with a
		// live session is probed: whether one can be had at all is the
		// link's own redial loop to find out, and a probe parked on a
		// dial would be reaped with its slot still claimed. With no
		// healthy rung the first of the rest doubles as the primary,
		// unclaimed, and the probe loop skips it — launching it twice
		// would open a duplicate stream on its session.
		launch(0, 0)
		for i := probeFrom; i < coolFrom; i++ {
			if rungs[i] == nil && ladder[i].connected() && c.health.beginProbe(ladder[i].addr) {
				launch(i, 0)
			}
		}
	} else {
		limits := c.health.shares(ladder, req.Params.K)
		for i := range ladder {
			var limit uint32
			if limits != nil {
				limit = limits[i]
			}
			launch(i, limit)
		}
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
			// without completing the chunk: walk the ladder now rather
			// than waiting out the hedge timer, and once nothing healthy
			// is left or running, spend the last resort.
			if !launchNext(probeFrom) && outstanding == 0 {
				for launchNext(len(ladder)) {
				}
			}
			if r.limit == 0 {
				continue
			}
			if sharesOut--; sharesOut == 0 {
				// Every share is in. Give what they left parked its
				// verdict (a rung outside the split may be verifying a
				// group this moment), and if the generation is short
				// after all, ask again.
				sink.Settle()
				if sink.Done() {
					break loop
				}
				secondRound()
			}
		case <-timer.C:
			if progress.Load() == lastProgress && !sink.Done() {
				// A full hedge delay with not one byte of progress:
				// re-issue the chunk on the next-healthiest peer. The
				// straggler keeps running — it may still win — until
				// the chunk completes and cancel() reaps it. Unhedged
				// there is no next peer, but there may be peers whose
				// shares are in while another's is stuck.
				if launchNext(probeFrom) {
					c.m.hedgeLaunched.Inc()
				}
				secondRound()
			}
			lastProgress = progress.Load()
			timer.Reset(delay)
		}
	}
	cancel()
	wg.Wait()
	stats.Elapsed = time.Since(start)
	stopSampling()

	// Every rung has returned. A generation that fell short may still
	// hold arrivals parked for a verify group that never filled; give
	// them their verdicts so rank and stats say how far it really got.
	sink.Settle()
	completed := sink.Done()
	c.classify(rungs, completed, delay)

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
	if out == nil {
		out = make([]byte, req.Params.DataLen)
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
// Called after wg.Wait, so err fields are settled.
func (c *Client) classify(rungs []*rung, completed bool, delay time.Duration) {
	for _, r := range rungs {
		if r == nil {
			continue
		}
		addr := r.link.addr
		elapsed := time.Since(r.started)
		switch {
		case errors.Is(r.err, context.Canceled), errors.Is(r.err, context.DeadlineExceeded):
			// Reaped before it had a session: no evidence either way.
		case r.err != nil:
			c.observe(addr, r.err)
		case c.opt.Hedge && completed && r.bytes.Load() == 0 && elapsed > delay:
			// Held a rung for a whole hedge delay and contributed
			// nothing while another peer finished the chunk: a stall —
			// the exact pathology hedging exists to route around.
			c.health.recordFailure(addr)
			c.m.hedgeStalls.Inc()
		case completed && r.bytes.Load() > 0:
			c.health.recordSuccess(addr, elapsed)
		default:
			// Exhausted its stored messages or arrived too late to
			// matter: liveness proven, no latency sample.
			c.observe(addr, nil)
		}
	}
}
