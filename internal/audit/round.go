package audit

// Round is the whole audit loop: one keyed spot-check per target, with
// a timeout per attempt and retries with exponential backoff. It keeps
// no state between calls — the caller decides when to check (the CLI's
// spotcheck, the repair daemon's rounds) and where debits go. It is
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

// Prober delivers one challenge to a peer and returns its response and
// the peer's ledger identity. client.Client satisfies this.
type Prober interface {
	Audit(ctx context.Context, addr string, ch wire.AuditChallenge) (*wire.AuditResponse, string, error)
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

	// Attempts is how many probes were sent (1 + retries used).
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

	// Timeout bounds one probe attempt; zero means DefaultTimeout.
	Timeout time.Duration

	// MaxRetries is how many times a failed probe is retried with
	// exponential backoff before the audit is declared a Timeout; zero
	// means DefaultMaxRetries, negative disables retries.
	MaxRetries int

	// Seed makes sampling deterministic; zero seeds from the current
	// time.
	Seed int64

	// Logger receives one line per verdict; nil discards them.
	Logger *slog.Logger
}

// Round audits every target once, in order, and returns one verdict per
// target — fewer if ctx ends first. Penalties are assessed on the
// verdicts, never applied: the caller relays them (SendAuditVerdicts).
// A missing prober or secret, or an invalid target, is an error before
// anything is sent.
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

	out := make([]Verdict, 0, len(targets))
	for i := range targets {
		if ctx.Err() != nil {
			break
		}
		ch, err := BuildChallenge(rng, secret, &targets[i], opt.SampleSize)
		if err != nil {
			return out, fmt.Errorf("audit: challenge for %s file %d: %w", targets[i].Addr, targets[i].FileID, err)
		}
		out = append(out, check(ctx, p, &targets[i], ch, &opt))
	}
	return out, nil
}

// check sends one challenge, retrying failed attempts with backoff,
// and judges the answer.
func check(ctx context.Context, p Prober, t *Target, ch wire.AuditChallenge, opt *Options) Verdict {
	v := Verdict{Addr: t.Addr, Peer: t.Peer, FileID: t.FileID}
	var (
		resp *wire.AuditResponse
		err  error
	)
	backoff := retryBackoff
	for attempt := 0; attempt <= opt.MaxRetries; attempt++ {
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
		attemptCtx, cancel := context.WithTimeout(ctx, opt.Timeout)
		var fingerprint string
		resp, fingerprint, err = p.Audit(attemptCtx, t.Addr, ch)
		cancel()
		v.Attempts++
		if fingerprint != "" {
			v.Peer = fingerprint
		}
		if err == nil {
			break
		}
		opt.Logger.Debug("audit probe failed", "addr", t.Addr, "attempt", attempt+1, "err", err)
	}

	if err != nil {
		v.Outcome, v.Err = Timeout, err
		v.Tally = Tally{Sampled: len(ch.MessageIDs), Missing: len(ch.MessageIDs)}
	} else if v.Tally = VerifyResponse(ch, resp, t.Digests); v.Tally.Passed() {
		v.Outcome = Pass
	} else {
		v.Outcome = Fail
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
	return v
}
