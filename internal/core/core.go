// Package core is the top-level facade of asymshare, tying together
// encoding (rlnc), chunking (chunk), dissemination and retrieval
// (client/peer) behind the workflow a user actually performs:
//
//  1. Share: encode a file with a fresh secret, mint per-peer message
//     batches, and upload them to storage peers while the home link is
//     idle (initialization, Sec. III-A).
//  2. Fetch: from any remote computer, download encoded messages from
//     many peers in parallel, beating the home upload bottleneck, and
//     decode with the secret (Sec. III-B).
//  3. Feedback: report per-peer receipts to the user's own peer so its
//     allocator can credit contributors (Sec. III-B, Eq. 2).
package core

import (
	"context"
	"errors"
	"fmt"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
)

// ErrBadHandle is returned for malformed share handles.
var ErrBadHandle = errors.New("core: invalid share handle")

// System is a user's view of the network.
type System struct {
	id         *auth.Identity
	client     *client.Client
	plan       chunk.Plan
	clientOpts client.Options
}

// Option customizes a System.
type Option func(*System)

// WithPlan overrides the default coding plan (GF(2^32), m = 32768,
// 1 MB chunks).
func WithPlan(plan chunk.Plan) Option {
	return func(s *System) { s.plan = plan }
}

// WithClientOptions customizes the system's client networking —
// timeouts, retries, or an alternative transport (a netsim host, say).
func WithClientOptions(opts client.Options) Option {
	return func(s *System) { s.clientOpts = opts }
}

// NewSystem creates a System for the given identity. trustedPeers, if
// non-nil, pins the peer keys the system will talk to.
func NewSystem(id *auth.Identity, trustedPeers *auth.TrustSet, opts ...Option) (*System, error) {
	if id == nil {
		return nil, errors.New("core: identity required")
	}
	s := &System{id: id, plan: chunk.DefaultPlan()}
	for _, opt := range opts {
		opt(s)
	}
	c, err := client.NewWith(id, trustedPeers, s.clientOpts)
	if err != nil {
		return nil, err
	}
	s.client = c
	if err := s.plan.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Identity returns the system's identity.
func (s *System) Identity() *auth.Identity { return s.id }

// Plan returns the coding plan in use.
func (s *System) Plan() chunk.Plan { return s.plan }

// Handle is everything needed to retrieve a shared file: the public
// manifest plus the addresses the batches were sent to. The Secret
// stays with the owner — anyone holding only Manifest and peer
// addresses (e.g. the storage peers themselves) cannot decode.
type Handle struct {
	Manifest chunk.Manifest `json:"manifest"`
	Peers    []string       `json:"peers"`

	// ChunkPeers, when present, records the ring placement: entry i is
	// the address set holding chunk i. Empty means every peer holds
	// every chunk (flat ShareFile).
	ChunkPeers [][]string `json:"chunkPeers,omitempty"`
}

// ShareResult is returned by ShareFile.
type ShareResult struct {
	Handle Handle

	// Secret is the private coding key; keep it with the user.
	Secret []byte

	// MessagesSent counts uploaded messages across peers and chunks.
	MessagesSent int

	// BytesSent counts uploaded payload bytes.
	BytesSent int64
}

// ShareFile encodes data and disseminates one batch per peer address.
// Peer index i (0-based position in peerAddrs) receives the batch
// minted by BatchForPeer(i), whose coefficient matrix is guaranteed
// invertible, so the file remains fully retrievable from any single
// complete peer.
func (s *System) ShareFile(ctx context.Context, name string, data []byte, peerAddrs []string) (*ShareResult, error) {
	if len(peerAddrs) == 0 {
		return nil, client.ErrNoPeers
	}
	secret, err := chunk.NewSecret()
	if err != nil {
		return nil, err
	}
	baseID, err := chunk.NewFileID()
	if err != nil {
		return nil, err
	}
	share, err := chunk.BuildShare(name, data, s.plan, baseID, secret)
	if err != nil {
		return nil, err
	}
	// Generation-major, so every peer's connection has work from the
	// start and the encode of one batch overlaps the upload of others.
	jobs := make([]shareJob, 0, share.NumChunks()*len(peerAddrs))
	for c := 0; c < share.NumChunks(); c++ {
		for i := range peerAddrs {
			jobs = append(jobs, shareJob{dest: i, chunk: c, rank: i})
		}
	}
	result := &ShareResult{Secret: secret}
	result.MessagesSent, result.BytesSent, err = streamShare(ctx, s.client, share, peerAddrs, jobs)
	if err != nil {
		return nil, err
	}
	result.Handle = Handle{Manifest: share.Manifest, Peers: append([]string(nil), peerAddrs...)}
	return result, nil
}

// FetchFile retrieves and reassembles a shared file from the handle's
// peers, downloading each chunk in parallel across all peers holding
// it (the placed subset for ring shares, everyone otherwise).
func (s *System) FetchFile(ctx context.Context, h *Handle, secret []byte) ([]byte, client.FetchStats, error) {
	if h == nil || len(h.Peers) == 0 {
		return nil, client.FetchStats{}, fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	return s.client.FetchFileFrom(ctx, &h.Manifest, secret,
		func(_ context.Context, i int) ([]string, error) { return h.PeersForChunk(i), nil })
}

// ReportFeedback forwards the per-peer receipts of a fetch to the
// user's own peer so contributors get credited in its ledger.
func (s *System) ReportFeedback(ctx context.Context, ownPeerAddr string, stats client.FetchStats) error {
	if len(stats.BytesFrom) == 0 {
		return nil
	}
	return s.client.SendFeedback(ctx, ownPeerAddr, stats.BytesFrom)
}

// Client exposes the underlying client for advanced use (e.g. fetching
// a single generation).
func (s *System) Client() *client.Client { return s.client }
