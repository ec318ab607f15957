package client

// Chunk streaming (Sec. III-D): because each 1 MB generation is encoded
// independently, "large files (e.g., audio or visual data) [can] be
// 'streamed' to a user in small chunks, rather than forcing the user to
// wait until the entire file contents have been downloaded". Stream
// delivers decoded chunks strictly in order while prefetching later
// chunks in the background.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"asymshare/internal/chunk"
)

// DefaultPrefetch is how many chunks beyond the one being consumed are
// fetched concurrently.
const DefaultPrefetch = 2

// StreamOptions tunes StreamFile.
type StreamOptions struct {
	// Prefetch is the number of chunks fetched ahead of the consumer;
	// zero means DefaultPrefetch, negative means no prefetching.
	Prefetch int
}

type chunkResult struct {
	index int
	data  []byte
	stats FetchStats
	err   error
}

// Stream is an in-order sequence of decoded chunks.
type Stream struct {
	cancel  context.CancelFunc
	results chan chunkResult
	next    int
	total   int
	pending map[int]chunkResult
	start   time.Time

	mu    sync.Mutex
	stats FetchStats

	closeOnce sync.Once
}

// StreamFile starts fetching all chunks of the manifest from the given
// peers, decoding each independently, and returns a Stream that yields
// them in order. At most prefetch+1 chunks are in flight, so the fetch
// never races far ahead of playback; they share one session per peer,
// which lives until the last chunk is fetched or the Stream is closed.
// A manifest that fails Validate (one without a Sum on every chunk, so
// chunks no sum has checked would play) is refused before any dial.
func (c *Client) StreamFile(ctx context.Context, addrs []string, m *chunk.Manifest,
	secret []byte, opts StreamOptions) (*Stream, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, ErrNoPeers
	}
	prefetch := opts.Prefetch
	switch {
	case prefetch == 0:
		prefetch = DefaultPrefetch
	case prefetch < 0:
		prefetch = 0
	}

	streamCtx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cancel:  cancel,
		results: make(chan chunkResult, prefetch+1),
		total:   len(m.Chunks),
		pending: make(map[int]chunkResult),
		start:   time.Now(),
		stats:   FetchStats{BytesFrom: make(map[string]uint64)},
	}
	go func() {
		defer close(s.results)
		surplus := c.fetchManifest(streamCtx, m, secret,
			func(context.Context, int) ([]string, error) { return addrs, nil }, prefetch+1, nil,
			func(i int, data []byte, stats FetchStats, err error) {
				select {
				case s.results <- chunkResult{index: i, data: data, stats: stats, err: err}:
				case <-streamCtx.Done():
				}
			})
		s.mu.Lock()
		s.stats.SurplusBytes = surplus // before results closes: an EOF reader sees it
		s.mu.Unlock()
	}()
	return s, nil
}

// Next returns the next chunk in file order. It returns io.EOF after
// the final chunk.
func (s *Stream) Next() (int, []byte, error) {
	for {
		if s.next >= s.total {
			return 0, nil, io.EOF
		}
		if res, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			return s.deliver(res)
		}
		res, ok := <-s.results
		if !ok {
			return 0, nil, fmt.Errorf("client: stream ended at chunk %d of %d", s.next, s.total)
		}
		if res.index != s.next {
			s.pending[res.index] = res
			continue
		}
		return s.deliver(res)
	}
}

func (s *Stream) deliver(res chunkResult) (int, []byte, error) {
	if res.err != nil {
		return res.index, nil, fmt.Errorf("chunk %d: %w", res.index, res.err)
	}
	s.mu.Lock()
	s.stats.merge(res.stats)
	s.stats.Elapsed = time.Since(s.start)
	s.mu.Unlock()
	s.next = res.index + 1
	return res.index, res.data, nil
}

// Stats returns the accumulated fetch statistics for the chunks
// delivered so far; Elapsed is the wall time from StreamFile to the
// latest delivery.
func (s *Stream) Stats() FetchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.BytesFrom = make(map[string]uint64, len(s.stats.BytesFrom))
	for k, v := range s.stats.BytesFrom {
		out.BytesFrom[k] = v
	}
	return out
}

// Close aborts any in-flight fetches. It is safe to call multiple
// times and after EOF.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		// Drain so downloads handing over results can exit.
		go func() {
			for range s.results { //nolint:revive // drain only
			}
		}()
	})
	return nil
}

// Reader adapts a Stream to io.ReadCloser for byte-oriented consumers
// (e.g. feeding a media player).
func (s *Stream) Reader() io.ReadCloser {
	return &streamReader{stream: s}
}

type streamReader struct {
	stream *Stream
	buf    []byte
	err    error
}

func (r *streamReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		_, data, err := r.stream.Next()
		if err != nil {
			r.err = err
			if errors.Is(err, io.EOF) {
				return 0, io.EOF
			}
			return 0, err
		}
		r.buf = data
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (r *streamReader) Close() error { return r.stream.Close() }
