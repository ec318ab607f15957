package audit

// Round is the whole audit loop: one keyed spot-check per target, every
// target of one address sent over one connection, with a timeout per
// round trip and retries with exponential backoff. It keeps
// no state between calls — the caller decides when to check (the CLI's
// spotcheck, core.System.Repair) and where debits go. It is
// transport-agnostic: anything that can deliver a challenge and return
// the response — the real client.Client, or an in-process fake in
// tests — plugs in as a Prober.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"time"

	"asymshare/internal/wire"
)

// Prober delivers one peer's challenges over one connection, one at a
// time, each round trip bounded by timeout. It returns the responses to
// a prefix of chs, in order, the peer's ledger identity if it learned
// it, and the error that left the rest unanswered. client.Client
// satisfies this.
type Prober interface {
	Audit(ctx context.Context, addr string, chs []wire.AuditChallenge, timeout time.Duration) ([]*wire.AuditResponse, string, error)
}

// Defaults used when the corresponding Options field is zero.
const (
	DefaultTimeout    = 5 * time.Second
	DefaultMaxRetries = 2
	DefaultSampleSize = 8
)

// retryBackoff is the delay before the first retry of a failed probe,
// doubling per retry.
const retryBackoff = 500 * time.Millisecond

// Outcome classifies one completed audit.
type Outcome int

// Audit outcomes.
const (
	// Pass: every sampled message was proven.
	Pass Outcome = iota

	// Fail: the peer answered but at least one sampled message was
	// missing or forged.
	Fail

	// Timeout: the peer never produced a verifiable response within
	// the retry budget — treated exactly like a failure for penalty
	// purposes, or refusing audits would be the winning strategy.
	Timeout
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Fail:
		return "fail"
	case Timeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Verdict is the result of one audit of one target.
type Verdict struct {
	Addr    string
	Peer    string // ledger identity; may be empty on timeout before any contact
	FileID  uint64
	Outcome Outcome
	Tally   Tally
	Penalty float64 // ledger units the caller should debit

	// Attempts is how many probes carried this target's challenge
	// (1 + retries used).
	Attempts int

	// Err is the last transport error for Timeout verdicts.
	Err error
}

// Stats total one round's verdicts; core.SpotCheck reports them.
type Stats struct {
	Passed          int64 // audits with every sampled message proven
	Failed          int64 // audits with missing or forged answers
	Timeouts        int64 // audits abandoned after the retry budget
	MessagesProbed  int64 // sampled messages across all audits
	MessagesProven  int64 // sampled messages that verified
	BytesProven     int64 // MessageBytes-weighted proven messages
	PenaltyAssessed float64
}

// Options tunes a Round. The zero value probes DefaultSampleSize
// messages per target, DefaultTimeout per attempt, DefaultMaxRetries
// retries, and charges MessageBytes per failed message.
type Options struct {
	// SampleSize is how many messages each target is probed on; zero
	// means DefaultSampleSize. The target's obligation and
	// wire.MaxAuditSample cap it.
	SampleSize int

	// PenaltyPerMessage is the debit per sampled message that failed
	// (missing, forged, or the whole sample on timeout). Zero derives it
	// from the target's MessageBytes — the peer forfeits the
	// credit-equivalent of the data it no longer proves.
	PenaltyPerMessage float64

	// Timeout bounds one round trip (the first includes the dial);
	// zero means DefaultTimeout.
	Timeout time.Duration

	// MaxRetries is how many times a failed probe is retried with
	// exponential backoff, for the challenges it left unanswered,
	// before their audits are declared a Timeout; zero means
	// DefaultMaxRetries, negative disables retries.
	MaxRetries int

	// Seed makes sampling deterministic; zero seeds from the current
	// time.
	Seed int64

	// Logger receives one line per verdict; nil discards them.
	Logger *slog.Logger
}

// Round audits every target once and returns one verdict per target,
// verdicts[i] for targets[i]. All of one address's challenges share one
// probe, so a peer is dialled once per attempt however many targets it
// holds. Penalties are assessed on the verdicts, never applied: the
// caller relays them (SendAuditVerdicts). A missing prober or secret,
// or an invalid target, is an error before anything is sent; a round
// that ctx cut short is ctx's error.
func Round(ctx context.Context, p Prober, secret []byte, targets []Target, opt Options) ([]Verdict, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: prober is required", ErrBadConfig)
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("%w: secret is required", ErrBadConfig)
	}
	for i := range targets {
		if err := targets[i].validate(); err != nil {
			return nil, err
		}
	}
	if opt.SampleSize <= 0 {
		opt.SampleSize = DefaultSampleSize
	}
	if opt.Timeout <= 0 {
		opt.Timeout = DefaultTimeout
	}
	if opt.MaxRetries == 0 {
		opt.MaxRetries = DefaultMaxRetries
	} else if opt.MaxRetries < 0 {
		opt.MaxRetries = 0
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	seed := opt.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))

	chs := make([]wire.AuditChallenge, len(targets))
	var addrs []string
	byAddr := make(map[string][]int)
	for i := range targets {
		var err error
		if chs[i], err = BuildChallenge(rng, secret, &targets[i], opt.SampleSize); err != nil {
			return nil, fmt.Errorf("audit: challenge for %s file %d: %w", targets[i].Addr, targets[i].FileID, err)
		}
		addr := targets[i].Addr
		if byAddr[addr] == nil {
			addrs = append(addrs, addr)
		}
		byAddr[addr] = append(byAddr[addr], i)
	}
	out := make([]Verdict, len(targets))
	for _, addr := range addrs {
		if ctx.Err() != nil {
			break
		}
		check(ctx, p, addr, targets, chs, byAddr[addr], &opt, out)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("audit: round cut short: %w", err)
	}
	return out, nil
}

// check sends the challenges of targets idx, all held at addr, retrying
// with backoff the ones a failed attempt left unanswered, and judges
// each answer into out.
func check(ctx context.Context, p Prober, addr string, targets []Target, chs []wire.AuditChallenge, idx []int, opt *Options, out []Verdict) {
	var (
		peer    string
		err     error
		batch   []wire.AuditChallenge
		backoff = retryBackoff
	)
	pending := idx
	for attempt := 0; attempt <= opt.MaxRetries && len(pending) > 0; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			if ctx.Err() != nil {
				err = ctx.Err()
				break
			}
			backoff *= 2
		}
		batch = batch[:0]
		for _, i := range pending {
			batch = append(batch, chs[i])
			out[i].Attempts++
		}
		var (
			resps       []*wire.AuditResponse
			fingerprint string
		)
		resps, fingerprint, err = p.Audit(ctx, addr, batch, opt.Timeout)
		if fingerprint != "" {
			peer = fingerprint
		}
		resps = resps[:min(len(resps), len(pending))]
		for j, resp := range resps {
			i := pending[j]
			if out[i].Tally = VerifyResponse(chs[i], resp, targets[i].Digests); out[i].Tally.Passed() {
				out[i].Outcome = Pass
			} else {
				out[i].Outcome = Fail
			}
		}
		pending = pending[len(resps):]
		if err != nil {
			opt.Logger.Debug("audit probe failed", "addr", addr, "attempt", attempt+1,
				"unanswered", len(pending), "err", err)
		}
	}
	for _, i := range pending {
		n := len(chs[i].MessageIDs)
		out[i].Outcome, out[i].Err = Timeout, err
		out[i].Tally = Tally{Sampled: n, Missing: n}
	}

	for _, i := range idx {
		t, v := &targets[i], &out[i]
		v.Addr, v.Peer, v.FileID = t.Addr, t.Peer, t.FileID
		if peer != "" {
			v.Peer = peer
		}
		if v.Outcome != Pass {
			perMessage := opt.PenaltyPerMessage
			if perMessage <= 0 {
				perMessage = float64(max(t.MessageBytes, 1))
			}
			v.Penalty = perMessage * float64(v.Tally.Missing+v.Tally.Forged)
		}
		opt.Logger.Info("audit verdict", "addr", v.Addr, "peer", v.Peer, "file", v.FileID,
			"outcome", v.Outcome.String(), "proven", v.Tally.Proven, "sampled", v.Tally.Sampled,
			"penalty", v.Penalty, "attempts", v.Attempts)
	}
}
