package chunk

// Share building: the initialization phase of Sec. III-A applied to a
// whole file. Each 1 MB generation is encoded independently; for every
// storage peer a batch of up to k messages per generation is produced
// (with the batch coefficient matrix guaranteed invertible, see
// rlnc.Encoder.BatchForPeer) and the MD5 digest of every produced
// message is recorded in the manifest for later authentication.

import (
	"fmt"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// Share holds everything the owner produces when sharing one file: the
// public manifest, the private secret, and the per-generation encoders
// which can mint message batches for any peer on demand.
type Share struct {
	Manifest Manifest
	Secret   []byte

	encoders []*rlnc.Encoder
}

// BuildShare encodes data under the plan with a fresh file-id per chunk
// derived from baseFileID (chunk i uses baseFileID + i) and records
// every chunk's Sum. The secret must be non-empty; use NewSecret for a
// random one.
func BuildShare(name string, data []byte, plan Plan, baseFileID uint64, secret []byte) (*Share, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty data", ErrBadManifest)
	}
	field, err := gf.New(plan.FieldBits)
	if err != nil {
		return nil, err
	}
	pieces := Split(data, plan.ChunkSize)
	share := &Share{
		Manifest: Manifest{
			Name:      name,
			TotalSize: int64(len(data)),
			Plan:      plan,
			Chunks:    make([]ChunkInfo, 0, len(pieces)),
		},
		Secret:   secret,
		encoders: make([]*rlnc.Encoder, 0, len(pieces)),
	}
	for i, piece := range pieces {
		params, err := rlnc.ParamsForSize(field, len(piece), plan.M)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		fileID := baseFileID + uint64(i)
		enc, err := rlnc.NewEncoder(params, fileID, secret, piece)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		share.encoders = append(share.encoders, enc)
		info := ChunkInfo{
			FileID:  fileID,
			DataLen: len(piece),
			K:       params.K,
			Digests: make(map[uint64]rlnc.Digest),
		}
		info.Sum = info.SumOf(plan, piece)
		share.Manifest.Chunks = append(share.Manifest.Chunks, info)
	}
	return share, nil
}

// NumChunks returns the number of generations in the share.
func (s *Share) NumChunks() int { return len(s.encoders) }

// Encoder returns the encoder for generation i.
func (s *Share) Encoder(i int) *rlnc.Encoder { return s.encoders[i] }

// BatchForPeer mints the message batch (n messages per generation) for
// the given peer index and records the digests of every minted message
// in the manifest. The same (peer, n) always produces the same batch.
func (s *Share) BatchForPeer(peer, n int) ([][]*rlnc.Message, error) {
	out := make([][]*rlnc.Message, s.NumChunks())
	for i, enc := range s.encoders {
		count := min(n, enc.Params().K)
		batch, err := enc.BatchForPeer(peer, count)
		if err != nil {
			return nil, fmt.Errorf("chunk %d peer %d: %w", i, peer, err)
		}
		digests := make([]rlnc.Digest, len(batch))
		rlnc.DigestBatch(digests, batch)
		for j, msg := range batch {
			s.Manifest.Chunks[i].Digests[msg.MessageID] = digests[j]
		}
		out[i] = batch
	}
	return out, nil
}
