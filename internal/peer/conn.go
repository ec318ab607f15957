package peer

// Per-connection protocol handling. After the mutual handshake the peer
// processes PUT (initialization uploads), GET / GET_MUX (download
// requests, served by shaped writer goroutines), STOP, FEEDBACK (owner
// only) and BYE frames. DATA writes and control replies share the
// connection, so every write after the handshake — ERROR frames
// included — goes through a per-connection mutex wrapping the one
// batched FrameWriter the handshake wrote through.
//
// Frames are read through one pooled wire.FrameReader, built before the
// handshake and kept until the connection closes: each payload arrives
// in a reference-counted buffer that the dispatch loop releases after
// the handler returns (handlers copy what they keep). The serve
// path frames stored messages with QueueSpan — 16 header bytes copied,
// the payload handed to writev untouched — so a DATA frame reaches the
// socket without marshaling and without steady-state allocation.
//
// GET_MUX requests differ from legacy GET only in failure scoping: a
// refused or failed stream is answered with a STREAM_ERROR frame naming
// the file-id and the connection (and every other stream on it) stays
// usable, where the legacy path answers with a connection-level ERROR.

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/fairshare"
	"asymshare/internal/ratelimit"
	"asymshare/internal/wire"

	"asymshare/internal/rlnc"
)

// serveBatchBytes caps how many DATA bytes one stream queues under the
// connection write lock before flushing, bounding both the lock hold
// time and the latency it imposes on control replies.
const serveBatchBytes = 256 << 10

// handshakeTimeout bounds the pre-authentication phase: a stranger that
// connects and never completes the handshake is disconnected instead of
// holding a goroutine, and under MaxConns a connection slot, forever.
// Four small frames cross in the meantime, so this is generous for any
// link a client would fetch over. A variable so tests can shorten it.
var handshakeTimeout = 10 * time.Second

// connWriter serializes frame writes from the control loop and the
// data-stream goroutines over one batched FrameWriter.
type connWriter struct {
	mu sync.Mutex
	fw *wire.FrameWriter
}

func newConnWriter(w io.Writer) *connWriter {
	return &connWriter{fw: wire.NewFrameWriter(w)}
}

func (cw *connWriter) writeFrame(t wire.Type, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.fw.WriteFrame(t, payload)
}

// writeErrorFrame sends a connection-level error frame under the write
// lock, following the wire.FrameWriter.WriteError contract: best-effort,
// the caller must still treat the exchange as failed and close the
// connection.
func (cw *connWriter) writeErrorFrame(code uint16, reason string) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.fw.WriteError(code, reason)
}

// writeStreamError sends a stream-scoped error: the named stream is
// dead, the connection is not.
func (cw *connWriter) writeStreamError(fileID uint64, code uint16, reason string) error {
	e := wire.StreamError{FileID: fileID, Code: code, Reason: reason}
	return cw.writeFrame(wire.TypeStreamError, e.Marshal())
}

// writeBusy sends a load-shed refusal for one stream: retry after the
// hint, the connection stays open either way.
func (cw *connWriter) writeBusy(fileID uint64, code uint16, retryAfterMillis uint32, reason string) error {
	b := wire.Busy{FileID: fileID, Code: code, RetryAfterMillis: retryAfterMillis, Reason: reason}
	return cw.writeFrame(wire.TypeBusy, b.Marshal())
}

// connState bundles the per-connection resources the frame dispatcher
// and its stream goroutines share.
type connState struct {
	n         *Node
	cw        *connWriter
	client    fairshare.ID
	clientKey ed25519.PublicKey
	ctx       context.Context
	wg        *sync.WaitGroup

	mu     sync.Mutex
	active map[uint64]*stream
}

func (n *Node) handleConn(conn net.Conn) {
	defer conn.Close()
	// Close the connection when the node shuts down so a read — the
	// handshake's or the dispatch loop's — unblocks.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-n.ctx.Done():
			conn.Close()
		case <-stopWatch:
		}
	}()

	fr := wire.NewFrameReader(conn)
	cw := newConnWriter(conn)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	clientKey, role, err := wire.ResponderHandshake(fr, cw.fw, n.cfg.Identity, n.cfg.Trusted)
	if err != nil {
		n.log.Debug("handshake failed", "remote", conn.RemoteAddr().String(), "err", err)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	client := auth.Fingerprint(clientKey)
	n.log.Debug("session open", "client", client, "role", role)

	// Streams started by this connection, so they are torn down when
	// the connection dies.
	var streamWG sync.WaitGroup
	connCtx, connCancel := context.WithCancel(n.ctx)
	defer func() {
		connCancel()
		// Close before waiting: a stream can be parked inside a shaped
		// or kernel-buffered write on this connection, and only the
		// close unblocks it. Waiting first would deadlock shutdown for
		// as long as the link takes to drain.
		conn.Close()
		streamWG.Wait()
	}()
	cs := &connState{
		n:         n,
		cw:        cw,
		client:    client,
		clientKey: clientKey,
		ctx:       connCtx,
		wg:        &streamWG,
		active:    make(map[uint64]*stream),
	}

	for {
		t, buf, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.log.Debug("read error", "client", client, "err", err)
			}
			return
		}
		done := cs.dispatch(t, buf.Bytes())
		buf.Release()
		if done {
			return
		}
	}
}

// dispatch handles one control frame. A true return closes the
// connection. payload is only valid for the duration of the call;
// handlers copy what they keep.
func (cs *connState) dispatch(t wire.Type, payload []byte) bool {
	n, client := cs.n, cs.client
	switch t {
	case wire.TypePut:
		if err := n.handlePut(cs.cw, client, payload); err != nil {
			n.log.Debug("put failed", "client", client, "err", err)
			return true
		}
	case wire.TypePatch:
		if err := n.handlePatch(cs.cw, client, payload); err != nil {
			n.log.Debug("patch failed", "client", client, "err", err)
			return true
		}
	case wire.TypeGet:
		return cs.handleGet(payload, false)
	case wire.TypeGetMux:
		return cs.handleGet(payload, true)
	case wire.TypeStop:
		var stop wire.Stop
		if err := stop.Unmarshal(payload); err != nil {
			_ = cs.cw.writeErrorFrame(wire.CodeBadRequest, "malformed stop")
			return true
		}
		cs.mu.Lock()
		if s, ok := cs.active[stop.FileID]; ok {
			s.cancel()
			delete(cs.active, stop.FileID)
		}
		cs.mu.Unlock()
	case wire.TypeList:
		list := wire.FileList{}
		for _, fileID := range n.cfg.Store.Files() {
			list.Files = append(list.Files, wire.FileEntry{
				FileID:   fileID,
				Messages: n.cfg.Store.Count(fileID),
			})
		}
		blob, err := list.Marshal()
		if err != nil {
			return true
		}
		if err := cs.cw.writeFrame(wire.TypeFileList, blob); err != nil {
			return true
		}
	case wire.TypeAuditChallenge:
		if err := n.handleAudit(cs.cw, client, payload); err != nil {
			n.log.Debug("audit failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractPropose:
		if err := n.handleContractPropose(cs.cw, client, payload); err != nil {
			n.log.Debug("contract propose failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractRenew:
		if err := n.handleContractRenew(cs.cw, client, payload); err != nil {
			n.log.Debug("contract renew failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractRelease:
		if err := n.handleContractRelease(cs.cw, client, payload); err != nil {
			n.log.Debug("contract release failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractList:
		if err := n.handleContractList(cs.cw, client); err != nil {
			return true
		}
	case wire.TypeFeedback:
		n.handleFeedback(cs.clientKey, client, payload)
		// Acknowledge so the sender knows the credits landed before
		// it disconnects.
		if err := cs.cw.writeFrame(wire.TypePutOK, nil); err != nil {
			return true
		}
	case wire.TypeBye:
		return true
	default:
		_ = cs.cw.writeErrorFrame(wire.CodeBadRequest, "unexpected frame "+t.String())
		return true
	}
	return false
}

// handleGet starts one download stream. mux selects the failure scope:
// stream-scoped STREAM_ERROR frames that leave the connection (and its
// other streams) running, versus the legacy connection-level ERROR. A
// payload that does not even parse is a connection fault either way.
func (cs *connState) handleGet(payload []byte, mux bool) bool {
	var get wire.Get
	if err := get.Unmarshal(payload); err != nil {
		_ = cs.cw.writeErrorFrame(wire.CodeBadRequest, "malformed get")
		return true
	}
	if err := cs.n.startStream(cs, get, mux); err != nil {
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			cs.n.log.Debug("get failed", "client", cs.client, "err", err)
		}
		// The refusal frame has been sent; the connection stays open for
		// further requests in both modes.
	}
	return false
}

// handlePut stores one uploaded message. The first uploader of a
// file-id becomes its owner; writes from anyone else are refused.
func (n *Node) handlePut(cw *connWriter, client fairshare.ID, payload []byte) error {
	// msg aliases the frame buffer, which is recycled when this returns:
	// Store.Put copies what it keeps.
	msg, err := rlnc.ViewMessage(payload)
	if err != nil {
		return err
	}
	if !n.claimFile(msg.FileID, client) {
		_ = cw.writeErrorFrame(wire.CodeNotPermitted, "file owned by another user")
		return fmt.Errorf("put for file %d owned by another user", msg.FileID)
	}
	if err := n.cfg.Store.Put(&msg); err != nil {
		return err
	}
	n.recordStored(len(payload))
	return cw.writeFrame(wire.TypePutOK, nil)
}

// handlePatch applies a delta message (Sec. VI-A data modification) to
// the matching stored message. Only the file's owner may patch.
func (n *Node) handlePatch(cw *connWriter, client fairshare.ID, payload []byte) error {
	delta, err := rlnc.ViewMessage(payload) // only read, by ApplyDelta
	if err != nil {
		return err
	}
	if !n.claimFile(delta.FileID, client) {
		_ = cw.writeErrorFrame(wire.CodeNotPermitted, "file owned by another user")
		return fmt.Errorf("patch for file %d owned by another user", delta.FileID)
	}
	stored, err := n.cfg.Store.Get(delta.FileID, delta.MessageID)
	if err != nil {
		_ = cw.writeErrorFrame(wire.CodeUnknownFile,
			fmt.Sprintf("no stored message (%d,%d)", delta.FileID, delta.MessageID))
		return err
	}
	if err := rlnc.ApplyDelta(stored, &delta); err != nil {
		_ = cw.writeErrorFrame(wire.CodeBadRequest, "delta mismatch")
		return err
	}
	if err := n.cfg.Store.Put(stored); err != nil {
		return err
	}
	return cw.writeFrame(wire.TypePutOK, nil)
}

// handleFeedback folds the owner's receipt report into the ledger.
// Reports from anyone but the owner are ignored: a malicious user
// cannot inflate another peer's standing (or slash a rival's). Credits
// reward service received; debits carry the owner's audit verdicts, so
// a counterpart caught dropping the owner's stored data loses standing
// with this peer's allocator.
func (n *Node) handleFeedback(clientKey ed25519.PublicKey, client fairshare.ID, payload []byte) {
	if n.cfg.Owner == nil || !clientKey.Equal(n.cfg.Owner) {
		n.log.Debug("feedback ignored from non-owner", "client", client)
		return
	}
	var fb wire.Feedback
	if err := fb.Unmarshal(payload); err != nil {
		n.log.Debug("malformed feedback", "client", client, "err", err)
		return
	}
	for _, e := range fb.Entries {
		n.ledger.Credit(e.PeerFingerprint, float64(e.Bytes))
		n.ledger.Debit(e.PeerFingerprint, float64(e.Debit))
	}
	n.m.feedback.Inc()
}

// handleAudit answers a keyed retention spot-check (internal/audit):
// for each sampled message the peer recomputes the content digest from
// the bytes it actually stores and MACs it under the challenge key.
// Messages it no longer holds are admitted as absent — guessing would
// fail verification anyway, since the owner checks against the digests
// recorded at dissemination time. A malformed challenge is answered
// with a typed error frame and kills the connection.
func (n *Node) handleAudit(cw *connWriter, client fairshare.ID, payload []byte) error {
	var ch wire.AuditChallenge
	if err := ch.Unmarshal(payload); err != nil {
		_ = cw.writeErrorFrame(wire.CodeBadRequest, "malformed audit challenge")
		return err
	}
	resp := wire.AuditResponse{FileID: ch.FileID, Proofs: make([]wire.AuditProof, 0, len(ch.MessageIDs))}
	proven := 0
	for _, id := range ch.MessageIDs {
		proof := wire.AuditProof{MessageID: id}
		if msg, err := n.cfg.Store.Get(ch.FileID, id); err == nil {
			digest := msg.Digest()
			proof.Present = true
			proof.MAC = auth.AuditMAC(ch.Key, ch.FileID, id, digest[:])
			proven++
		}
		resp.Proofs = append(resp.Proofs, proof)
	}
	n.recordAudit(proven, len(ch.MessageIDs))
	n.log.Debug("audit answered", "client", client, "file", ch.FileID,
		"sampled", len(ch.MessageIDs), "held", proven)
	return cw.writeFrame(wire.TypeAuditResponse, resp.Marshal())
}

// startStream begins serving a GET request on its own goroutine. The
// stream is in cs.active from before that goroutine starts until just
// before the requester is told it is over, so STOP always finds the
// stream it names and a finished stream leaves nothing behind. Only the
// connection's read loop adds entries, which is why the duplicate check
// and the insert need not share one critical section.
func (n *Node) startStream(cs *connState, get wire.Get, mux bool) error {
	refuse := func(code uint16, reason string) error {
		if mux {
			_ = cs.cw.writeStreamError(get.FileID, code, reason)
		} else {
			_ = cs.cw.writeErrorFrame(code, reason)
		}
		return &wire.RemoteError{Code: code}
	}
	cs.mu.Lock()
	_, dup := cs.active[get.FileID]
	cs.mu.Unlock()
	if dup {
		// One stream per generation per connection: DATA frames carry
		// only the file-id, so a second could not be told from the
		// first, and would take over the entry STOP looks up.
		return refuse(wire.CodeBadRequest, fmt.Sprintf("file %d is already streaming", get.FileID))
	}
	msgs, err := n.cfg.Store.Messages(get.FileID)
	if err != nil {
		return refuse(wire.CodeUnknownFile, fmt.Sprintf("file %d", get.FileID))
	}
	if get.Limit > 0 && int(get.Limit) < len(msgs) {
		msgs = msgs[:get.Limit]
	}
	// The burst must cover at least one full message frame or WaitN
	// could never succeed.
	burst := n.cfg.StreamBurst
	if burst <= 0 {
		burst = streamBurst
	}
	for _, m := range msgs {
		if need := float64(len(m.Payload) + 64); need > burst {
			burst = need
		}
	}
	streamCtx, cancel := context.WithCancel(cs.ctx)
	s := &stream{
		client:   cs.client,
		bucket:   ratelimit.NewBucket(0, burst),
		cancel:   cancel,
		fileID:   get.FileID,
		limited:  n.shaping(),
		priority: get.Priority,
	}
	if get.DeadlineMillis > 0 {
		// The wire carries deadline-*remaining*, so no clock agreement
		// with the requester is needed: anchor it here.
		s.deadline = time.Now().Add(time.Duration(get.DeadlineMillis) * time.Millisecond)
	}
	cw := cs.cw
	s.notifyBusy = func(code uint16, retryAfterMillis uint32, reason string) {
		_ = cw.writeBusy(get.FileID, code, retryAfterMillis, reason)
	}
	s.bucket.SetMetrics(n.m.waitSeconds, n.m.throttled)
	verdict := n.admitStream(s)
	if verdict.victim != nil {
		n.shedStream(verdict.victim, "preempted by a higher-standing requester")
	}
	if !verdict.ok {
		cancel()
		n.recordShed(cs.client, false)
		_ = cw.writeBusy(get.FileID, wire.CodeBusy, verdict.retryAfterMillis, "at stream capacity")
		return &wire.RemoteError{Code: wire.CodeBusy}
	}
	cs.mu.Lock()
	cs.active[get.FileID] = s
	cs.mu.Unlock()
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		defer cancel()
		exhausted := n.serveStream(streamCtx, cw, s, msgs)
		// Off both books before the end-of-stream goes out: a requester
		// that answers it with another GET for this generation (the
		// rest, after a share) must find neither the entry nor the
		// admission slot still held.
		cs.mu.Lock()
		if cs.active[s.fileID] == s { // STOP may have removed it already
			delete(cs.active, s.fileID)
		}
		cs.mu.Unlock()
		n.unregisterStream(s)
		if exhausted {
			eos := wire.Stop{FileID: s.fileID}
			_ = cw.writeFrame(wire.TypeStop, eos.Marshal())
		}
	}()
	return nil
}

// serveStream writes DATA frames at the allocator-assigned rate until
// the messages are exhausted or the stream is cancelled. Each message
// is framed zero-copy — QueueSpan copies the 16-byte header into the
// writer arena and hands the stored payload to the vectored write
// untouched. After the rate limiter admits the first message, further
// messages whose tokens are already in the bucket are batched into the
// same flush (Available is checked before WaitN, so the limiter can
// never block while the connection write lock is held). An unlimited
// peer skips the bucket entirely — no token math, no timer sleeps —
// and batches straight up to the flush watermark. It reports whether
// every message went out with the stream still wanted — the caller then
// owes the requester a STOP frame, so it knows this peer is exhausted.
func (n *Node) serveStream(ctx context.Context, cw *connWriter, s *stream, msgs []*rlnc.Message) bool {
	var hdr [rlnc.MessageHeaderBytes]byte
	for i := 0; i < len(msgs); {
		// Dead work is dropped, not served: once the requester's
		// propagated deadline passes, every further byte would arrive
		// too late to matter, so tell the requester and free the slot.
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			n.recordExpired()
			_ = cw.writeBusy(s.fileID, wire.CodeExpired, 0, "deadline passed")
			return false
		}
		// Brownout halves the batch budget per flush, re-read each
		// round so the degradation tracks admission load live.
		batchBytes := n.currentBatchBytes()
		msg := msgs[i]
		need := rlnc.MessageHeaderBytes + len(msg.Payload)
		if s.limited {
			if err := s.bucket.WaitN(ctx, need); err != nil {
				return false // cancelled or burst misconfiguration
			}
		} else if ctx.Err() != nil {
			return false
		}
		cw.mu.Lock()
		flushStart := time.Now()
		msg.PutHeader(hdr[:])
		if err := cw.fw.QueueSpan(wire.TypeData, hdr[:], msg.Payload); err != nil {
			cw.mu.Unlock()
			return false
		}
		sent := need
		i++
		for i < len(msgs) && cw.fw.Queued() < batchBytes {
			next := msgs[i]
			nn := rlnc.MessageHeaderBytes + len(next.Payload)
			if s.limited {
				if s.bucket.Available() < float64(nn) {
					break
				}
				if err := s.bucket.WaitN(ctx, nn); err != nil {
					cw.mu.Unlock()
					return false
				}
			}
			next.PutHeader(hdr[:])
			if err := cw.fw.QueueSpan(wire.TypeData, hdr[:], next.Payload); err != nil {
				cw.mu.Unlock()
				return false
			}
			sent += nn
			i++
		}
		// The batch drains through the raw socket, not the token
		// bucket, so its timing sees the real link rate even while the
		// allocator is granting this stream far less — that is what
		// makes it a usable capacity sample. The timer starts at the
		// first QueueSpan because the frame writer auto-flushes once
		// enough is queued: the socket writes may happen inside the
		// Queue calls, not in the final Flush.
		err := cw.fw.Flush()
		flushDur := time.Since(flushStart)
		cw.mu.Unlock()
		if err != nil {
			return false
		}
		n.recordFlush(sent, flushDur)
		n.recordServed(s.client, sent)
	}
	return ctx.Err() == nil
}
