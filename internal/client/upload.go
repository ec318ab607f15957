package client

// The write path's connection: PUT (initialization, Sec. III-A) and
// PATCH (data modification, Sec. VI-A) batches go out windowed — a
// window's frames are written back-to-back, then their acknowledgements
// are collected — instead of one round trip per message. Each
// acknowledgement is an empty 5-byte frame, so a peer can always queue a
// whole window's worth without the user reading, and the window cannot
// deadlock on socket buffers. The wire protocol is unchanged.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// uploadWindow is the most messages sent before their acknowledgements
// are collected: 64 outstanding acks are 320 bytes of return traffic.
const uploadWindow = 64

// Upload is one authenticated connection to a storage peer for storing
// or patching messages (the control RPCs' single round trip rides it
// too, see Client.roundTrip). Its lifetime is tied to the context it was
// opened with: the context's deadline bounds every read and write, and
// cancelling it closes the connection, which unblocks a transfer parked
// on a peer that stopped reading. Not safe for concurrent use.
type Upload struct {
	peerConn
	ctx    context.Context
	addr   string
	unhook func() bool
	hdr    [rlnc.MessageHeaderBytes]byte
	failed bool
}

// OpenUpload dials addr and completes the handshake.
func (c *Client) OpenUpload(ctx context.Context, addr string) (*Upload, error) {
	pc, err := c.dial(ctx, addr, wire.RoleUser)
	if err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = pc.conn.SetDeadline(deadline) // a conn that cannot take a deadline is still closed on cancel
	}
	u := &Upload{peerConn: pc, ctx: ctx, addr: addr}
	u.unhook = context.AfterFunc(ctx, func() { pc.conn.Close() })
	return u, nil
}

// Put stores msgs at the peer, returning once every one is
// acknowledged. Payloads are framed in place and must stay unmodified
// until Put returns.
func (u *Upload) Put(msgs []*rlnc.Message) error { return u.send(wire.TypePut, "put", msgs) }

// Patch applies msgs as deltas to the peer's stored messages with the
// same identifiers, returning once every one is acknowledged — the
// data-modification path of Sec. VI-A. The peer accepts deltas only
// from the file's owner (the identity that first uploaded it).
func (u *Upload) Patch(msgs []*rlnc.Message) error { return u.send(wire.TypePatch, "patch", msgs) }

func (u *Upload) send(t wire.Type, verb string, msgs []*rlnc.Message) error {
	for len(msgs) > 0 {
		n := min(len(msgs), uploadWindow)
		if err := u.window(t, msgs[:n]); err != nil {
			u.failed = true
			return fmt.Errorf("client: %s to %s: %w", verb, u.addr, u.ctxErr(err))
		}
		msgs = msgs[n:]
	}
	return nil
}

// ctxErr maps an I/O error caused by the context ending back to the
// context's own error.
func (u *Upload) ctxErr(err error) error {
	if cause := context.Cause(u.ctx); cause != nil {
		return cause // the I/O error is only the echo of our own close
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded // the conn deadline is the context's, a hair early
	}
	return err
}

func (u *Upload) window(t wire.Type, msgs []*rlnc.Message) error {
	for _, m := range msgs {
		m.PutHeader(u.hdr[:])
		if err := u.fw.QueueSpan(t, u.hdr[:], m.Payload); err != nil {
			return err
		}
	}
	if err := u.fw.Flush(); err != nil {
		// A peer that refused an earlier frame says why and hangs up; its
		// ERROR frame, if already here, explains more than our broken
		// pipe does. The conn is being abandoned either way.
		_ = u.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		var refusal *wire.RemoteError
		if errors.As(u.acks(len(msgs)), &refusal) {
			return refusal
		}
		return err
	}
	return u.acks(len(msgs))
}

// acks collects n acknowledgements.
func (u *Upload) acks(n int) error {
	for i := 0; i < n; i++ {
		ack, err := u.fr.Expect(wire.TypePutOK)
		if err != nil {
			return err
		}
		ack.Release()
	}
	return nil
}

// Close ends the session — with an orderly BYE unless a transfer
// already failed — and closes the connection.
func (u *Upload) Close() error {
	u.unhook()
	var err error
	if !u.failed && u.ctx.Err() == nil {
		err = u.fw.WriteFrame(wire.TypeBye, nil)
	}
	u.conn.Close()
	return err
}
