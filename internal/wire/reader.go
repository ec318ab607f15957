package wire

// FrameReader is the one way a frame is read: a connection builds one
// before its first frame (HELLO) and reads every frame through it until
// BYE. It buffers the underlying stream in one window, parses
// length-prefixed frames out of it, and hands each payload out in a
// reference-counted *Buf drawn from its Pool — the caller owns the
// buffer and must Release it (or hand ownership on; see DESIGN.md §12).
// Because the window may hold bytes past the frame just returned, a
// second reader over the same stream would lose them: the handshake and
// everything after it share the connection's reader. Frame boundaries,
// size limits and error classes match a plain io.ReadFull decoder
// exactly, which the differential fuzzer pins.

import (
	"encoding/binary"
	"fmt"
	"io"
)

const (
	// frameReaderMinWindow is the fill buffer a reader starts with: the
	// replies of a handshake, a DHT RPC or a tracker round trip fit, so
	// a short-lived connection never pays for more.
	frameReaderMinWindow = 4 << 10

	// frameReaderWindow is the most the fill buffer grows to: big enough
	// to batch many small control frames per read syscall, small enough
	// to sit in L2.
	frameReaderWindow = 64 << 10
)

// FrameReader reads frames from one stream. Not safe for concurrent
// use; a connection has exactly one reader.
type FrameReader struct {
	r    io.Reader
	pool *Pool
	buf  []byte
	lo   int // next unread byte in buf
	hi   int // end of buffered bytes

	// large is set while frames arrive bigger than the largest window:
	// their bodies are mostly read straight into their pooled buffers,
	// so fill reads no more than frameReaderMinWindow ahead — the next
	// header and a little of its body — instead of copying up to a
	// window's worth of the next body out of it. The next frame that
	// fits the window clears it.
	large bool
}

// NewFrameReader returns a reader over r drawing payload buffers from
// DefaultPool.
func NewFrameReader(r io.Reader) *FrameReader {
	return NewFrameReaderPool(r, DefaultPool)
}

// NewFrameReaderPool is NewFrameReader with an explicit pool (tests use
// private pools for leak accounting).
func NewFrameReaderPool(r io.Reader, pool *Pool) *FrameReader {
	return &FrameReader{r: r, pool: pool, buf: make([]byte, frameReaderMinWindow)}
}

// fill buffers at least need bytes, compacting the window first. A read
// that fills the window means the stream runs ahead of the reader, so
// the window doubles, up to frameReaderWindow, and later reads batch
// more. After a frame too large for the window, each read asks for at
// most frameReaderMinWindow bytes (see large). A clean end-of-stream
// with nothing buffered returns io.EOF; a torn prefix returns
// io.ErrUnexpectedEOF — the classes io.ReadFull yields for a 5-byte
// header.
func (fr *FrameReader) fill(need int) error {
	for fr.hi-fr.lo < need {
		if fr.lo > 0 {
			copy(fr.buf, fr.buf[fr.lo:fr.hi])
			fr.hi -= fr.lo
			fr.lo = 0
		}
		end := len(fr.buf)
		if fr.large {
			end = min(end, fr.hi+frameReaderMinWindow)
		}
		n, err := fr.r.Read(fr.buf[fr.hi:end])
		fr.hi += n
		if fr.hi == len(fr.buf) && len(fr.buf) < frameReaderWindow {
			grown := make([]byte, 2*len(fr.buf))
			copy(grown, fr.buf[:fr.hi])
			fr.buf = grown
		}
		if fr.hi-fr.lo >= need {
			return nil
		}
		if err != nil {
			if err == io.EOF {
				if fr.hi == fr.lo {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Peek returns the next frame's type without consuming the frame, so
// a listener can route a connection on its first frame before reading
// it.
func (fr *FrameReader) Peek() (Type, error) {
	if err := fr.fill(1); err != nil {
		return 0, err
	}
	return Type(fr.buf[fr.lo]), nil
}

// Next reads one frame. The returned buffer holds the payload; the
// caller owns its single reference. On error no buffer is returned and
// nothing needs releasing.
func (fr *FrameReader) Next() (Type, *Buf, error) {
	if err := fr.fill(5); err != nil {
		return 0, nil, err
	}
	t := Type(fr.buf[fr.lo])
	n := int(binary.BigEndian.Uint32(fr.buf[fr.lo+1:]))
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	fr.lo += 5
	b := fr.pool.Get(n)
	have := fr.hi - fr.lo
	if have > n {
		have = n
	}
	copy(b.data[:have], fr.buf[fr.lo:fr.lo+have])
	fr.lo += have
	fr.large = n > frameReaderWindow
	if have < n {
		if _, err := io.ReadFull(fr.r, b.data[have:n]); err != nil {
			b.Release()
			if err == io.EOF && have > 0 {
				// Part of the body was consumed from the buffered window,
				// so a clean end-of-stream here is a torn frame: one
				// ReadFull over the whole body would have read those
				// bytes itself and returned ErrUnexpectedEOF. With no
				// body bytes consumed, EOF passes through — the class
				// ReadFull yields when the stream ends exactly at the
				// header.
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
		}
	}
	recordFrameRecv(t, n)
	return t, b, nil
}

// Expect reads one frame and verifies its type, translating an ERROR
// frame into *RemoteError. The returned buffer follows Next's ownership
// rule.
func (fr *FrameReader) Expect(want Type) (*Buf, error) {
	t, b, err := fr.Next()
	if err != nil {
		return nil, err
	}
	if t == TypeError {
		var e ErrorMsg
		uerr := e.Unmarshal(b.Bytes())
		b.Release()
		if uerr == nil {
			return nil, &RemoteError{Code: e.Code, Reason: e.Reason}
		}
		return nil, fmt.Errorf("%w: undecodable remote error", ErrBadFrame)
	}
	if t != want {
		b.Release()
		return nil, fmt.Errorf("%w: got %s, want %s", ErrUnexpectedFrame, t, want)
	}
	return b, nil
}
