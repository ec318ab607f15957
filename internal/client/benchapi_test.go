package client_test

// Compile-time pins for the client, rlnc and chunk surface cmd/bench
// builds its stepwise (traced) fetch and share from — see
// cmd/bench/stepwise.go and cmd/bench/run.go. cmd/bench is a module of
// its own, so `go build ./... && go test ./...` never compiles it:
// without these a signature change here surfaces only as a benchmark
// that no longer builds, and the benchmark may not be edited to follow.

import (
	"context"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
	"asymshare/internal/transport"
)

var (
	_ func(*client.Client, context.Context, string) (*client.PeerSession, error)                       = (*client.Client).NewPeerSession
	_ func(*client.PeerSession, context.Context, client.StreamRequest, rlnc.ByteSink, func(int)) error = (*client.PeerSession).FetchStream
	_ func(*client.PeerSession, context.Context, uint64, rlnc.ByteSink, func(int)) error               = (*client.PeerSession).Fetch
	_ func(*client.PeerSession) error                                                                  = (*client.PeerSession).Close
	_ func(*client.PeerSession) string                                                                 = (*client.PeerSession).Fingerprint
	_ func(*client.PeerSession) string                                                                 = (*client.PeerSession).Addr

	_ func(*client.Client, context.Context, []string, *chunk.Manifest, []byte) ([]byte, client.FetchStats, error)            = (*client.Client).FetchFile
	_ func(*client.Client, context.Context, []string, *chunk.Manifest, []byte, client.StreamOptions) (*client.Stream, error) = (*client.Client).StreamFile
	_ func(*client.Stream) (int, []byte, error)                                                                              = (*client.Stream).Next
	_ func(*client.Stream) error                                                                                             = (*client.Stream).Close
	_ func(*client.Stream) client.FetchStats                                                                                 = (*client.Stream).Stats
	_ func(*client.Client, *metrics.Registry)                                                                                = (*client.Client).Instrument

	_ = client.StreamRequest{FileID: uint64(0), Priority: uint8(0)}
	_ = client.Options{Transport: transport.Transport(nil)}
	_ = client.FetchStats{}.BytesFrom
	_ = client.ErrIncomplete
	_ = []string{
		client.MetricMessages, client.MetricInnovativeMessages, client.MetricRejectedMessages,
		client.MetricHedgeLaunched, client.MetricBreakerOpens, client.MetricShedsObserved,
	}

	_ func(rlnc.Params, uint64, []byte, map[uint64]rlnc.Digest, rlnc.PipelineConfig) (*rlnc.Pipeline, error) = rlnc.NewPipeline
	_ rlnc.ByteSink                                                                                          = (*rlnc.Pipeline)(nil)
	_ func(*rlnc.Pipeline) ([]byte, error)                                                                   = (*rlnc.Pipeline).Decode
	_ func(*rlnc.Pipeline) rlnc.Stats                                                                        = (*rlnc.Pipeline).Stats
	_ func(*rlnc.Pipeline)                                                                                   = (*rlnc.Pipeline).Close

	_ func(*chunk.Manifest, [][]byte) ([]byte, error)                        = chunk.Assemble
	_ func(string, []byte, chunk.Plan, uint64, []byte) (*chunk.Share, error) = chunk.BuildShare
	_ func(*chunk.Share, int, int) ([][]*rlnc.Message, error)                = (*chunk.Share).BatchForPeer
	_ func(*rlnc.Message) rlnc.Digest                                        = (*rlnc.Message).Digest
	_ func() ([]byte, error)                                                 = chunk.NewSecret
	_ func() (uint64, error)                                                 = chunk.NewFileID
)
