package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/rlnc"
)

// Span names: the layer (package) before the dot, the call after it.
const (
	spanFetch       = "core.fetch"
	spanSessionOpen = "client.session_open"
	spanChunkFetch  = "client.chunk_fetch"
	spanPipelineNew = "rlnc.pipeline_new"
	spanFetchStream = "client.fetch_stream"
	spanAddBytes    = "rlnc.add_bytes"
	spanDecode      = "rlnc.decode"
	spanAssemble    = "chunk.assemble"

	spanShare       = "core.share"
	spanBuildShare  = "chunk.build_share"
	spanEncode      = "rlnc.encode"
	spanDisseminate = "client.disseminate"

	spanUpdate = "core.update"
	spanStream = "client.stream_file"
)

// fetchInFlight is how many chunks client.FetchFile keeps in flight.
const fetchInFlight = 4

// decodeCounts is the decoder's message accounting summed over the
// chunks of one stepwise fetch.
type decodeCounts struct {
	offered, innovative, rejected int64
}

// stepwiseFetch is client.FetchFile rebuilt from the public calls it
// makes — one muxed session per peer, up to four chunks in flight, each
// chunk streamed from every session into one pipeline — with a span
// around each call. It returns the plaintext, the message bytes
// received, and the decoder's counts.
func stepwiseFetch(ctx context.Context, t *tracer, sys *core.System, h *core.Handle, secret []byte) ([]byte, int64, decodeCounts, error) {
	var counts decodeCounts
	op := t.newOp()
	root := t.begin(op, 0, spanFetch)
	defer t.end(root)

	m := &h.Manifest
	sessions := make([]*client.PeerSession, 0, len(h.Peers))
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	for _, addr := range h.Peers {
		id := t.begin(op, root, spanSessionOpen)
		s, err := sys.Client().NewPeerSession(ctx, addr)
		t.end(id)
		if err != nil {
			return nil, 0, counts, err
		}
		sessions = append(sessions, s)
	}

	fileCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex // guards counts
		wire   atomic.Int64
		pieces = make([][]byte, len(m.Chunks))
		errs   = make([]error, len(m.Chunks))
		slots  = make(chan struct{}, fetchInFlight)
	)
	for i := range m.Chunks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			if fileCtx.Err() != nil {
				errs[i] = fileCtx.Err()
				return
			}
			data, st, err := stepwiseChunk(fileCtx, t, op, root, sessions, m, i, secret, &wire)
			if err != nil {
				errs[i] = fmt.Errorf("chunk %d: %w", i, err)
				cancel()
				return
			}
			pieces[i] = data
			mu.Lock()
			counts.offered += int64(st.Received)
			counts.innovative += int64(st.Accepted)
			counts.rejected += int64(st.Rejected)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, wire.Load(), counts, err
		}
	}
	id := t.begin(op, root, spanAssemble)
	data, err := chunk.Assemble(m, pieces)
	t.end(id)
	return data, wire.Load(), counts, err
}

// stepwiseChunk downloads and decodes one generation over the open
// sessions, as client.fetchChunkMux does.
func stepwiseChunk(ctx context.Context, t *tracer, op, parent int64, sessions []*client.PeerSession,
	m *chunk.Manifest, i int, secret []byte, wire *atomic.Int64) ([]byte, rlnc.Stats, error) {
	cid := t.begin(op, parent, spanChunkFetch)
	defer t.end(cid)
	info := m.Chunks[i]
	params, err := info.Params(m.Plan)
	if err != nil {
		return nil, rlnc.Stats{}, err
	}
	pid := t.begin(op, cid, spanPipelineNew)
	p, err := rlnc.NewPipeline(params, info.FileID, secret, info.Digests, rlnc.PipelineConfig{})
	t.end(pid)
	if err != nil {
		return nil, rlnc.Stats{}, err
	}
	defer p.Close()

	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for j, s := range sessions {
		wg.Add(1)
		go func(j int, s *client.PeerSession) {
			defer wg.Done()
			sid := t.begin(op, cid, spanFetchStream)
			sink := &timingSink{ByteSink: p, t: t, op: op, parent: sid}
			errs[j] = s.FetchStream(streamCtx, client.StreamRequest{FileID: info.FileID}, sink,
				func(n int) { wire.Add(int64(n)) })
			t.end(sid)
			if p.Done() {
				cancel() // wake sibling streams so they STOP promptly
			}
		}(j, s)
	}
	wg.Wait()
	if !p.Done() {
		if err := ctx.Err(); err != nil {
			return nil, p.Stats(), err
		}
		return nil, p.Stats(), fmt.Errorf("%w: rank %d of %d (%v)", client.ErrIncomplete, p.Rank(), params.K, errs)
	}
	did := t.begin(op, cid, spanDecode)
	data, err := p.Decode()
	t.end(did)
	return data, p.Stats(), err
}

// stepwiseShare is core.ShareFile rebuilt from the public calls it
// makes, with a span around each. It returns the handle, the secret,
// the payload bytes uploaded and the messages minted.
func stepwiseShare(ctx context.Context, t *tracer, sys *core.System, name string, data []byte,
	addrs []string) (*core.ShareResult, error) {
	op := t.newOp()
	root := t.begin(op, 0, spanShare)
	defer t.end(root)

	bid := t.begin(op, root, spanBuildShare)
	secret, err := chunk.NewSecret()
	if err != nil {
		return nil, err
	}
	baseID, err := chunk.NewFileID()
	if err != nil {
		return nil, err
	}
	share, err := chunk.BuildShare(name, data, sys.Plan(), baseID, secret)
	t.end(bid)
	if err != nil {
		return nil, err
	}
	res := &core.ShareResult{Secret: secret}
	for i, addr := range addrs {
		eid := t.begin(op, root, spanEncode)
		batches, err := share.BatchForPeer(i, 1<<31-1)
		var flat []*rlnc.Message
		for _, b := range batches {
			flat = append(flat, b...)
		}
		t.end(eid)
		if err != nil {
			return nil, fmt.Errorf("batch for peer %d: %w", i, err)
		}
		did := t.begin(op, root, spanDisseminate)
		err = sys.Client().Disseminate(ctx, addr, flat)
		t.end(did)
		if err != nil {
			return nil, fmt.Errorf("disseminate to %s: %w", addr, err)
		}
		res.MessagesSent += len(flat)
		for _, msg := range flat {
			res.BytesSent += int64(len(msg.Payload) + 16)
		}
	}
	res.Handle = core.Handle{Manifest: share.Manifest, Peers: append([]string(nil), addrs...)}
	return res, nil
}
