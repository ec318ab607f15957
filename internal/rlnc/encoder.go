package rlnc

// Encoder for Eq. (1) of the paper: Y_i = sum_{j=1..k} beta_ij * X_j,
// with beta rows derived from a secret key (coeff.go). Messages are
// deterministic in (fileID, messageID), so the encoder can regenerate
// any message on demand and storage peers can be replenished without
// the owner keeping the encoded form around.

import (
	"fmt"
	"sync"

	"asymshare/internal/gf"
)

// Encoder produces encoded messages for one generation (one file, or
// one 1 MB chunk of a large file — see package chunk). It is safe for
// concurrent use.
type Encoder struct {
	params Params
	fileID uint64
	gen    *CoeffGenerator
	chunks [][]byte // k packed chunks of ChunkBytes: the caller's data, a padded tail

	mu   sync.Mutex
	free []*mintScratch // idle per-caller scratch, one per concurrent minter at peak
}

// mintScratch is what minting one message needs beyond the payload: a
// keyed row stream, the row it fills and one product table. Callers
// borrow it for the duration of a call, so steady-state minting
// allocates nothing.
type mintScratch struct {
	rows *RowStream
	row  []uint32
	tab  gf.MulTable

	// Row-echelon basis of a batch-id scan (appendIndependentIDs),
	// allocated by the first scan this scratch serves.
	basis   [][]uint32 // k rows of k: chosen rows first, then the candidate
	echelon [][]uint32
	pivots  []int
}

func (e *Encoder) getScratch() *mintScratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		sc := e.free[n-1]
		e.free = e.free[:n-1]
		return sc
	}
	return &mintScratch{rows: e.gen.Stream(), row: make([]uint32, e.params.K)}
}

func (e *Encoder) putScratch(sc *mintScratch) {
	e.mu.Lock()
	e.free = append(e.free, sc)
	e.mu.Unlock()
}

// NewEncoder splits data into k chunks per params and prepares the
// coefficient generator. data must be at most params.CapacityBytes()
// and exactly params.DataLen bytes.
//
// The encoder reads the full-length chunks of data in place rather than
// copying them; only a short last chunk (and any chunk past the data's
// end) is copied into a zero-padded buffer. So data must not change
// while the encoder is in use, and minting never writes into it.
func NewEncoder(params Params, fileID uint64, secret, data []byte) (*Encoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(data) != params.DataLen {
		return nil, fmt.Errorf("%w: data is %d bytes, params say %d",
			ErrBadParams, len(data), params.DataLen)
	}
	gen, err := NewCoeffGenerator(params.Field, params.K, secret)
	if err != nil {
		return nil, err
	}
	cb := params.ChunkBytes()
	chunks := make([][]byte, params.K)
	full := len(data) / cb
	for j := range full {
		chunks[j] = data[j*cb : (j+1)*cb : (j+1)*cb]
	}
	if full < params.K {
		pad := make([]byte, (params.K-full)*cb)
		copy(pad, data[full*cb:])
		for j := full; j < params.K; j++ {
			lo := (j - full) * cb
			chunks[j] = pad[lo : lo+cb : lo+cb]
		}
	}
	return &Encoder{params: params, fileID: fileID, gen: gen, chunks: chunks}, nil
}

// Params returns the coding parameters.
func (e *Encoder) Params() Params { return e.params }

// FileID returns the generation's file identifier.
func (e *Encoder) FileID() uint64 { return e.fileID }

// MessageInto deterministically mints the payload of the message with
// the given message-id into payload, which the caller owns and which
// must be exactly ChunkBytes long; its previous contents are
// overwritten. The result depends only on (secret, file-id,
// message-id, data).
func (e *Encoder) MessageInto(messageID uint64, payload []byte) {
	if len(payload) != e.params.ChunkBytes() {
		panic("rlnc: MessageInto payload length mismatch")
	}
	sc := e.getScratch()
	sc.rows.RowInto(e.fileID, messageID, sc.row)
	clear(payload)
	for j, c := range sc.row {
		if c != 0 {
			sc.tab.Init(e.params.Field, c)
			sc.tab.MulAdd(payload, e.chunks[j])
		}
	}
	e.putScratch(sc)
}

// Message deterministically produces the encoded message with the given
// message-id.
func (e *Encoder) Message(messageID uint64) *Message {
	payload := make([]byte, e.params.ChunkBytes())
	e.MessageInto(messageID, payload)
	return &Message{FileID: e.fileID, MessageID: messageID, Payload: payload}
}

// batchStride separates the message-id ranges assigned to different
// peers, leaving room for the encoder to skip linearly dependent ids:
// batch rank r owns ids [r·2^32, (r+1)·2^32). BatchRank and
// RankDigests are the layout's only readers outside the encoder.
const batchStride = uint64(1) << 32

// BatchRank returns the batch rank whose id range holds messageID.
func BatchRank(messageID uint64) int { return int(messageID / batchStride) }

// RankDigests returns the subset of a generation's digests minted for
// batch rank r — one peer's obligation.
func RankDigests(all map[uint64]Digest, rank int) map[uint64]Digest {
	out := make(map[uint64]Digest)
	for id, d := range all {
		if BatchRank(id) == rank {
			out[id] = d
		}
	}
	return out
}

// BatchForPeer generates the batch of up to k messages destined for the
// peer with the given index (0-based), per the initialization phase of
// Sec. III-A. The paper's encoder "tests generated rows for linear
// independence before encoding"; we realize that guarantee by scanning
// message-ids from peer*2^32 upward and skipping any id whose
// coefficient row is dependent on the ids already chosen, so the batch
// coefficient matrix is always invertible and a user can decode from any
// single complete batch. The decoder re-derives rows from the ids, so
// skipped ids cost nothing.
func (e *Encoder) BatchForPeer(peer, n int) ([]*Message, error) {
	ids, err := e.BatchIDs(peer, n)
	if err != nil {
		return nil, err
	}
	msgs := make([]*Message, len(ids))
	for i, id := range ids {
		msgs[i] = e.Message(id)
	}
	return msgs, nil
}

// BatchIDs returns the message-ids of BatchForPeer(peer, n) without
// minting any payload. The ids depend only on (secret, file-id), not on
// the data, so any version of a generation yields the same ids.
func (e *Encoder) BatchIDs(peer, n int) ([]uint64, error) {
	return e.AppendBatchIDs(nil, peer, n)
}

// AppendBatchIDs is BatchIDs appending to dst: with room in dst, a
// caller minting batch after batch allocates nothing for the ids.
func (e *Encoder) AppendBatchIDs(dst []uint64, peer, n int) ([]uint64, error) {
	if peer < 0 || n <= 0 || n > e.params.K {
		return dst, fmt.Errorf("%w: peer=%d n=%d (k=%d)", ErrBadParams, peer, n, e.params.K)
	}
	return e.appendIndependentIDs(dst, uint64(peer)*batchStride, n)
}

// appendIndependentIDs scans ids from start, appending the first n
// whose coefficient rows are jointly linearly independent.
func (e *Encoder) appendIndependentIDs(ids []uint64, start uint64, n int) ([]uint64, error) {
	f := e.params.Field
	k := e.params.K
	sc := e.getScratch()
	defer e.putScratch(sc)
	if sc.basis == nil {
		flat := make([]uint32, k*k)
		sc.basis = make([][]uint32, k)
		for i := range sc.basis {
			sc.basis[i] = flat[i*k : (i+1)*k]
		}
		sc.echelon = make([][]uint32, 0, k)
		sc.pivots = make([]int, 0, k)
	}
	// Maintain a row-echelon basis of chosen rows for O(k) dependence
	// checks per candidate.
	echelon, pivots := sc.echelon[:0], sc.pivots[:0]
	base := len(ids)

	// The scan window is far smaller than batchStride; with random rows
	// the expected number of skips is < 2 even over GF(16).
	const maxScan = 1 << 16
	for off := uint64(0); off < maxScan && len(echelon) < n; off++ {
		id := start + off
		cand := sc.basis[len(echelon)]
		sc.rows.RowInto(e.fileID, id, cand)
		if !reduceRow(f, cand, echelon, pivots, nil, nil) {
			continue // dependent; skip this id
		}
		echelon = append(echelon, cand)
		pivots = append(pivots, leadingIndex(cand))
		ids = append(ids, id)
	}
	if len(echelon) < n {
		return ids[:base], fmt.Errorf("%w: could not find %d independent rows", ErrBadParams, n)
	}
	return ids, nil
}

// leadingIndex returns the index of the first non-zero element, or -1.
func leadingIndex(row []uint32) int {
	for j, v := range row {
		if v != 0 {
			return j
		}
	}
	return -1
}

// reduceRow reduces cand against the echelon rows (normalizing its
// pivot if it survives) and reports whether cand is independent. If
// payload and echelonPayloads are non-nil the same operations are
// applied to the payload vector, which is how the decoder performs
// incremental Gaussian elimination.
func reduceRow(f gf.Field, cand []uint32, echelon [][]uint32, pivots []int,
	payload []byte, echelonPayloads [][]byte) bool {
	for i, er := range echelon {
		p := pivots[i]
		if cand[p] == 0 {
			continue
		}
		factor := cand[p] // echelon rows have unit pivots
		addScaledRow(f, cand, er, factor)
		if payload != nil {
			gf.MulAddSlice(f, payload, echelonPayloads[i], factor)
		}
	}
	lead := leadingIndex(cand)
	if lead < 0 {
		return false
	}
	// Normalize so the pivot is 1.
	inv, err := f.Inv(cand[lead])
	if err != nil {
		return false // unreachable: cand[lead] != 0
	}
	if inv != 1 {
		scaleRow(f, cand, inv)
		if payload != nil {
			gf.MulSlice(f, payload, inv)
		}
	}
	return true
}
