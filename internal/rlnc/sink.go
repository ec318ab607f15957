package rlnc

// Stats is the message accounting shared by every decoder front end.
// Each message offered to Add lands in exactly one outcome bucket, so
// Received == Accepted + Rejected + Duplicate + Redundant always holds.
type Stats struct {
	Received  int // messages offered
	Accepted  int // innovative: increased the decoder's rank
	Rejected  int // failed validation or digest authentication
	Duplicate int // repeated message-ids
	Redundant int // authentic but linearly dependent (or rank already full)
}

// Sink is the streaming decode interface the fetch path codes against:
// something that consumes encoded messages until it has gathered a full
// generation. Both the sequential Decoder (one producer at a time) and
// the parallel Pipeline implement it.
type Sink interface {
	// Add folds one message in and reports whether it was innovative.
	// Messages for other files and authentication failures return
	// errors; dependent or duplicate messages return (false, nil). An
	// engine that verifies arrivals in groups (Pipeline) also returns
	// (false, nil) for a message whose verdict is still to come; Rank,
	// Done and Stats count verdicts, never promises.
	Add(msg *Message) (bool, error)
	// Rank is the dimension of the span gathered so far.
	Rank() int
	// Done reports whether rank has reached k.
	Done() bool
	// Stats returns the message accounting so far.
	Stats() Stats
}

// ByteSink is the zero-copy extension of Sink: a decode engine that
// ingests serialized messages (16-byte header + payload) straight from
// wire frames. The Pipeline implements it natively: parse in place, one
// copy into its arena, digest there.
type ByteSink interface {
	Sink
	// AddBytes folds one serialized message in. The caller keeps
	// ownership of data; it may be reused once the call returns.
	AddBytes(data []byte) (bool, error)
}

var (
	_ Sink     = (*Decoder)(nil)
	_ ByteSink = (*Pipeline)(nil)
)
