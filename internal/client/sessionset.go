package client

// The per-call session set: one peerLink — and so one dial + handshake
// on a healthy fabric — per distinct peer address, shared by every
// chunk stream of one Fetch / FetchFile / StreamFile call. The link
// owns the peer's failure handling: a connection that dies mid-stream
// is redialed up to PeerRetries times with doubling RetryBackoff, a
// BUSY shed is re-requested on the live session after the peer's
// RETRY_AFTER hint without spending that budget, and a protocol-level
// refusal ends the one stream it names. A link that exhausts its budget
// is down for the rest of the call; the chunk ladder (ladder.go) simply
// sees its rung end and moves on.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// peerLink is the set's slot for one peer address.
type peerLink struct {
	c    *Client
	ctx  context.Context // the set's context: bounds dials and backoff
	addr string

	mu    sync.Mutex
	sess  *PeerSession  // current session; nil while connecting or down
	ready chan struct{} // closed when the in-flight connect resolves
	fails int           // consecutive failed dials and lost sessions
	down  error         // set once fails exceeds PeerRetries

	surplus uint64 // surplus bytes of the sessions retired so far
}

// sessionSet holds the links of one fetch call. open and close are the
// calling goroutine's; only the links are shared with its streams.
type sessionSet struct {
	c      *Client
	ctx    context.Context
	cancel context.CancelFunc
	links  map[string]*peerLink
}

func (c *Client) newSessionSet(ctx context.Context) *sessionSet {
	ctx, cancel := context.WithCancel(ctx)
	return &sessionSet{c: c, ctx: ctx, cancel: cancel, links: make(map[string]*peerLink)}
}

// open returns the links for addrs in order, one per distinct address,
// starting the dial of any address not seen before — unless its
// circuit breaker is open and cooling down, in which case the dial
// waits for a rung of it to launch (session starts it then). Dials run
// concurrently, so opening n peers costs the slowest dial, not the sum,
// and an unreachable peer delays no stream but its own.
func (set *sessionSet) open(addrs []string) []*peerLink {
	out := make([]*peerLink, 0, len(addrs))
	for _, addr := range addrs {
		l, ok := set.links[addr]
		if !ok {
			l = &peerLink{c: set.c, ctx: set.ctx, addr: addr}
			set.links[addr] = l
			if !set.c.health.coolingDown(addr) {
				l.ready = make(chan struct{})
				go l.connect(l.ready)
			}
		} else if slices.Contains(out, l) {
			continue
		}
		out = append(out, l)
	}
	return out
}

// close cancels in-flight dials and closes every session; the caller's
// streams have all returned. No goroutine of the set outlives it. It
// returns the surplus the call's sessions read: bytes of DATA frames
// that arrived after their generation's stream had ended.
func (set *sessionSet) close() (surplusBytes uint64) {
	set.cancel()
	for _, l := range set.links {
		for {
			l.mu.Lock()
			ready, sess := l.ready, l.sess
			l.mu.Unlock()
			if ready == nil {
				if sess != nil {
					sess.Close()
					surplusBytes += sess.surplus.Load()
				}
				surplusBytes += l.surplus // no connect in flight: settled
				break
			}
			<-ready
		}
	}
	return surplusBytes
}

// connect dials until a session is up or the retry budget is spent,
// sleeping the doubling backoff before every attempt after a failure.
// It closes ready when it resolves either way.
func (l *peerLink) connect(ready chan struct{}) {
	defer close(ready)
	for {
		l.mu.Lock()
		fails := l.fails
		l.mu.Unlock()
		var sess *PeerSession
		var err error
		if fails == 0 || sleepCtx(l.ctx, l.c.opt.RetryBackoff<<(fails-1)) {
			sess, err = l.c.NewPeerSession(l.ctx, l.addr)
		}
		if err != nil && l.ctx.Err() == nil {
			l.c.observe(l.addr, err)
			if l.failed(err) {
				return
			}
			continue
		}
		// Connected — or the set was closed first, and the link is down
		// for whoever still asks.
		l.mu.Lock()
		l.sess, l.ready = sess, nil
		if sess == nil {
			l.down = l.ctx.Err()
		}
		l.mu.Unlock()
		return
	}
}

// failed counts one transport failure against the budget and reports
// whether the link is now down.
func (l *peerLink) failed(err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fails++
	if l.fails > l.c.opt.PeerRetries {
		l.down, l.ready = err, nil
		return true
	}
	return false
}

// session returns the link's live session, waiting out an in-flight
// connect (and starting one after a loss). The error is terminal for
// the caller: its context ended, or the link is down.
func (l *peerLink) session(ctx context.Context) (*PeerSession, error) {
	for {
		l.mu.Lock()
		if l.sess != nil || l.down != nil {
			sess, err := l.sess, l.down
			l.mu.Unlock()
			return sess, err
		}
		if l.ready == nil {
			l.ready = make(chan struct{})
			go l.connect(l.ready)
		}
		ready := l.ready
		l.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// lost retires sess after a connection-level failure, once however many
// streams report it, and charges the retry budget. It reports false for
// a session that is still alive: the error was scoped to one stream.
func (l *peerLink) lost(sess *PeerSession, err error) bool {
	if !sess.isDead() {
		return false
	}
	l.mu.Lock()
	first := l.sess == sess
	if first {
		l.sess = nil
	}
	l.mu.Unlock()
	if first {
		sess.Close()
		l.mu.Lock()
		l.surplus += sess.surplus.Load()
		l.mu.Unlock()
		l.c.observe(l.addr, err)
		l.failed(err)
	}
	return true
}

// fetchStream streams one generation from the peer into sink, across
// redials and sheds, until the decode completes, the peer is exhausted,
// ctx ends (all nil, like PeerSession.FetchStream) or the stream fails
// for good; onBytes is told which key served each message, since a
// redial may reach a different one. Protocol-level rejections (*wire.RemoteError, an expired
// deadline, a sink error) are terminal — the peer answered, and asking
// again will not change the answer. The shared sink keeps whatever
// earlier attempts delivered, so a redial resumes the peer's
// contribution rather than restarting it.
func (l *peerLink) fetchStream(ctx context.Context, req StreamRequest, sink rlnc.ByteSink,
	onBytes func(fingerprint string, n int)) error {
	for {
		sess, err := l.session(ctx)
		if err != nil {
			return err
		}
		err = sess.FetchStream(ctx, req, sink, func(n int) { onBytes(sess.fingerprint, n) })
		if err == nil {
			l.mu.Lock()
			l.fails = 0
			l.mu.Unlock()
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		var busy *wire.Busy
		var remote *wire.RemoteError
		switch {
		case errors.As(err, &busy):
			if busy.Code == wire.CodeExpired {
				return err // our deadline passed; asking again cannot help
			}
			// The peer is alive and said when to come back: honor
			// RETRY_AFTER as a floor. Only ctx bounds how long we ask.
			l.c.observe(l.addr, err)
			wait := l.c.opt.RetryBackoff
			if ra := time.Duration(busy.RetryAfterMillis) * time.Millisecond; ra > wait {
				wait = ra
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
		case errors.As(err, &remote):
			return err
		case !l.lost(sess, err):
			return err
		}
	}
}

// sleepCtx waits d, reporting false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// observe folds one stream attempt's outcome into the health registry:
// a BUSY shed is an honest answer that proves liveness, any other error
// a failure that feeds the breaker, nil proof of liveness. So is a
// refusal of the one file asked for: a peer that does not hold it may
// hold the next, and its breaker guards the peer, not the file.
func (c *Client) observe(addr string, err error) {
	var busy *wire.Busy
	var remote *wire.RemoteError
	switch {
	case err == nil, errors.As(err, &remote) && remote.Code == wire.CodeUnknownFile:
		c.health.recordSuccess(addr, 0)
	case errors.As(err, &busy):
		c.health.recordShed(addr)
		c.m.shedsObserved.Inc()
	default:
		c.health.recordFailure(addr)
	}
}
