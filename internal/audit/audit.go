// Package audit implements owner-side keyed spot-checks of remote
// encoded storage, closing the retention gap in the paper's incentive
// story: Theorem 1 assumes storage peers still hold the messages they
// accepted during pre-dissemination, but nothing in the protocol
// verified it — a peer could discard every chunk and keep earning
// ledger credit for bandwidth alone. A Round samples each peer's
// obligations, challenges it to MAC the sampled messages under a
// per-challenge key derived from the owner's coding secret and a fresh
// nonce (internal/auth.DeriveAuditKey — the holder cannot precompute
// answers, and the owner verifies against manifest digests without
// re-downloading a byte), and returns verdicts whose penalties the
// caller relays to the owner's own peer (client.SendAuditVerdicts →
// fairshare.Ledger.Debit) and whose failures mark replicas lost so
// repair can re-disseminate. The ledger thereby measures "bandwidth
// received from peers proven to still hold my data", not just
// bandwidth received.
package audit

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

var (
	// ErrBadTarget is returned for targets missing required fields.
	ErrBadTarget = errors.New("audit: invalid target")

	// ErrBadConfig is returned for a round without a prober or secret.
	ErrBadConfig = errors.New("audit: invalid configuration")
)

// Target is one retention obligation: a peer address expected to hold
// the messages of one file, verifiable against the digests recorded at
// dissemination time.
type Target struct {
	// Addr is the peer's dial address.
	Addr string

	// Peer is the peer's ledger identity (key fingerprint). Empty is
	// allowed: a peer that answers names itself in its verdict, but one
	// that never answers leaves the verdict without an identity to
	// debit.
	Peer string

	// FileID identifies the audited generation.
	FileID uint64

	// Digests maps every disseminated message-id to its content digest
	// — the same map carried in the chunk manifest (Sec. III-C).
	Digests map[uint64]rlnc.Digest

	// MessageBytes is the serialized size of one stored message, used
	// for bytes-proven accounting and the default penalty scale.
	MessageBytes int
}

// validate checks the target invariants.
func (t *Target) validate() error {
	if t.Addr == "" {
		return fmt.Errorf("%w: missing address", ErrBadTarget)
	}
	if len(t.Digests) == 0 {
		return fmt.Errorf("%w: no digests for file %d", ErrBadTarget, t.FileID)
	}
	return nil
}

// TargetFor builds the obligation of batch rank on chunk i of m held at
// addr: the chunk's file id, the digests minted for that rank, and the
// chunk's serialized message size. Its Digests are empty when there is
// nothing to check — i is out of range, or the chunk recorded no
// digests for the rank (shared before digests were recorded).
func TargetFor(m *chunk.Manifest, i, rank int, addr string) (Target, error) {
	if i < 0 || i >= len(m.Chunks) {
		return Target{}, nil
	}
	info := m.Chunks[i]
	digests := rlnc.RankDigests(info.Digests, rank)
	if len(digests) == 0 {
		return Target{}, nil
	}
	params, err := info.Params(m.Plan)
	if err != nil {
		return Target{}, err
	}
	return Target{Addr: addr, FileID: info.FileID, Digests: digests, MessageBytes: params.MessageBytes()}, nil
}

// BuildChallenge samples up to `sample` distinct message-ids from the
// target's digest set and constructs the keyed challenge: fresh nonce,
// per-challenge key derived from (secret, file-id, nonce). The rng
// drives sampling only, never key material.
func BuildChallenge(rng *rand.Rand, secret []byte, t *Target, sample int) (wire.AuditChallenge, error) {
	if err := t.validate(); err != nil {
		return wire.AuditChallenge{}, err
	}
	if sample <= 0 {
		sample = 1
	}
	if sample > len(t.Digests) {
		sample = len(t.Digests)
	}
	if sample > wire.MaxAuditSample {
		sample = wire.MaxAuditSample
	}
	ids := make([]uint64, 0, len(t.Digests))
	for id := range t.Digests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ids = ids[:sample]

	nonce, err := auth.NewChallenge()
	if err != nil {
		return wire.AuditChallenge{}, err
	}
	key, err := auth.DeriveAuditKey(secret, t.FileID, nonce)
	if err != nil {
		return wire.AuditChallenge{}, err
	}
	return wire.AuditChallenge{
		FileID:     t.FileID,
		Nonce:      nonce,
		Key:        key,
		MessageIDs: ids,
	}, nil
}

// Tally is the verification outcome of one challenge/response pair.
type Tally struct {
	// Sampled is how many messages the challenge probed.
	Sampled int

	// Proven counts messages whose MAC verified: the peer demonstrably
	// still holds bytes hashing to the disseminated digest.
	Proven int

	// Missing counts messages the peer admitted not holding, or left
	// unanswered.
	Missing int

	// Forged counts answers that failed MAC verification — worse than
	// missing, since the peer tried to fake possession.
	Forged int
}

// Passed reports whether every sampled message was proven.
func (t Tally) Passed() bool { return t.Sampled > 0 && t.Proven == t.Sampled }

// VerifyResponse checks a peer's response against the challenge and
// the owner's digests. Proofs for message-ids that were never
// challenged count as forged; challenged ids with no proof count as
// missing. The peer never learns which verdict each answer got.
func VerifyResponse(ch wire.AuditChallenge, resp *wire.AuditResponse, digests map[uint64]rlnc.Digest) Tally {
	tally := Tally{Sampled: len(ch.MessageIDs)}
	challenged := make(map[uint64]bool, len(ch.MessageIDs))
	for _, id := range ch.MessageIDs {
		challenged[id] = true
	}
	answered := make(map[uint64]bool, len(ch.MessageIDs))
	if resp != nil && resp.FileID == ch.FileID {
		for _, p := range resp.Proofs {
			if !challenged[p.MessageID] || answered[p.MessageID] {
				tally.Forged++
				continue
			}
			answered[p.MessageID] = true
			if !p.Present {
				tally.Missing++
				continue
			}
			digest, ok := digests[p.MessageID]
			if ok && auth.VerifyAuditMAC(ch.Key, ch.FileID, p.MessageID, digest[:], p.MAC) {
				tally.Proven++
			} else {
				tally.Forged++
			}
		}
	}
	for _, id := range ch.MessageIDs {
		if !answered[id] {
			tally.Missing++
		}
	}
	return tally
}
