package wire

// FrameWriter is the one way a frame is written: a connection builds
// one before HELLO and writes every frame through it until BYE. Frames
// are queued — header bytes land in a reused arena, payload slices are
// referenced, never copied — and a Flush pushes the whole batch to the
// connection in one call: a single contiguous write for small batches
// (one syscall, no writev setup cost) or a net.Buffers vectored write
// for large ones (writev on TCP, so a 64 KiB DATA payload goes from the
// store's memory to the socket with zero intermediate copies). Steady
// state allocates nothing. WriteFrame is queue-and-flush for the
// one-frame control replies.
//
// Ownership (DESIGN.md §12): plain Queue/QueueSpan payloads must stay
// valid until Flush returns; QueueBuf transfers ownership of a pooled
// *Buf to the writer, which releases it after the flush — success or
// not.

import (
	"fmt"
	"io"
	"net"
)

const (
	// writerAutoFlush is the queued-byte watermark past which Queue*
	// flushes on its own, bounding arena growth and write latency.
	writerAutoFlush = 256 << 10

	// writerCoalesce is the batch size up to which Flush copies the
	// queue into one contiguous buffer instead of issuing a vectored
	// write — small control frames cost one Write, not one per part.
	writerCoalesce = 8 << 10
)

// FrameWriter queues frames for one connection. Not safe for
// concurrent use; connections with multiple writing goroutines guard
// it with a mutex.
type FrameWriter struct {
	w    io.Writer
	pool *Pool

	arena   []byte      // header + copied-head bytes, reset per flush
	vecs    net.Buffers // queued spans, in write order
	owned   []*Buf      // pooled buffers released after flush
	metaT   []Type      // per-frame type, for metrics on success
	metaN   []int       // per-frame payload length
	queued  int         // total queued bytes
	scratch []byte      // coalesce buffer, reused
}

// NewFrameWriter returns a writer over w using DefaultPool for owned
// buffers it may be handed.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, pool: DefaultPool}
}

// header appends a 5-byte frame header to the arena and returns it.
func (fw *FrameWriter) header(t Type, n int) []byte {
	off := len(fw.arena)
	fw.arena = append(fw.arena, byte(t), byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return fw.arena[off : off+5]
}

func (fw *FrameWriter) push(t Type, n int, spans ...[]byte) error {
	for _, s := range spans {
		if len(s) > 0 {
			fw.vecs = append(fw.vecs, s)
		}
	}
	fw.metaT = append(fw.metaT, t)
	fw.metaN = append(fw.metaN, n)
	fw.queued += 5 + n
	if fw.queued >= writerAutoFlush {
		return fw.Flush()
	}
	return nil
}

// Queue adds one frame. payload is referenced, not copied: it must stay
// valid (and unmodified) until Flush returns.
func (fw *FrameWriter) Queue(t Type, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	return fw.push(t, len(payload), fw.header(t, len(payload)), payload)
}

// QueueSpan adds one frame whose payload is head followed by body. head
// (small, typically a message header) is copied into the writer's
// arena — contiguous with the frame header, so the pair costs one span;
// body is referenced like Queue's payload. This is how a stored message
// is framed without marshaling: 16 bytes copied, the payload untouched.
func (fw *FrameWriter) QueueSpan(t Type, head, body []byte) error {
	n := len(head) + len(body)
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	off := len(fw.arena)
	fw.arena = append(fw.arena, byte(t), byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	fw.arena = append(fw.arena, head...)
	return fw.push(t, n, fw.arena[off:len(fw.arena)], body)
}

// QueueBuf adds one frame whose payload is a pooled buffer, taking
// ownership: the writer releases it after the next flush whether or not
// the write succeeds.
func (fw *FrameWriter) QueueBuf(t Type, b *Buf) error {
	if b.Len() > MaxFrameSize {
		b.Release()
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, b.Len())
	}
	fw.owned = append(fw.owned, b)
	return fw.push(t, b.Len(), fw.header(t, b.Len()), b.Bytes())
}

// WriteFrame queues one frame and flushes everything queued.
func (fw *FrameWriter) WriteFrame(t Type, payload []byte) error {
	if err := fw.Queue(t, payload); err != nil {
		return err
	}
	return fw.Flush()
}

// WriteError sends a connection-level ERROR frame. It is best-effort:
// whatever it returns, the sender must treat the exchange as failed and
// close the connection. The frame only lets a well-behaved remote
// surface a typed *RemoteError (FrameReader.Expect) instead of a bare
// EOF, so a malformed request is answered rather than left to hang.
func (fw *FrameWriter) WriteError(code uint16, reason string) error {
	msg := ErrorMsg{Code: code, Reason: reason}
	return fw.WriteFrame(TypeError, msg.Marshal())
}

// Queued reports the bytes currently queued and unflushed.
func (fw *FrameWriter) Queued() int { return fw.queued }

// Flush writes every queued frame. Owned buffers are released and the
// queue reset regardless of the outcome (a failed connection write is
// fatal to the stream; nothing is retried).
func (fw *FrameWriter) Flush() error {
	if len(fw.metaT) == 0 {
		return nil
	}
	var err error
	if fw.queued <= writerCoalesce {
		if cap(fw.scratch) < fw.queued {
			// Doubling to the batches this connection sends: a writer
			// that only ever sends one small frame holds no 8 KiB.
			fw.scratch = make([]byte, 0, min(max(2*cap(fw.scratch), fw.queued), writerCoalesce))
		}
		out := fw.scratch[:0]
		for _, v := range fw.vecs {
			out = append(out, v...)
		}
		fw.scratch = out[:0]
		_, err = fw.w.Write(out)
	} else {
		// WriteTo consumes the receiver slice header (and may reslice
		// entries on partial writes): save the full header first so the
		// backing array keeps its base for reuse. The call must go
		// through the field, not a stack copy — a local net.Buffers
		// escapes into the writev call and costs one allocation per
		// flush.
		full := fw.vecs
		_, err = fw.vecs.WriteTo(fw.w)
		fw.vecs = full
	}
	if err == nil {
		for i, t := range fw.metaT {
			recordFrameSent(t, fw.metaN[i])
		}
	} else {
		err = fmt.Errorf("wire: write %s: %w", fw.metaT[0], err)
	}
	for _, b := range fw.owned {
		b.Release()
	}
	fw.owned = fw.owned[:0]
	fw.arena = fw.arena[:0]
	fw.vecs = fw.vecs[:0]
	fw.metaT = fw.metaT[:0]
	fw.metaN = fw.metaN[:0]
	fw.queued = 0
	return err
}
