package store

// Journal framing for the disk backend. Each `<file-id>.dat` is an
// append-only journal in the spirit of log-structured storage
// (Rosenblum & Ousterhout): a 16-byte header followed by CRC-32C
// framed records, one per Put. Appending is O(record) instead of the
// previous O(file) rewrite, and recovery distinguishes the two ways a
// journal goes bad:
//
//   - a *torn tail* — the last record is incomplete or fails its CRC
//     and nothing follows it; exactly what a power cut mid-append
//     leaves behind. Recovery truncates the tail and keeps the prefix.
//   - *interior corruption* — a record that is fully present fails its
//     CRC, or the framing desynchronizes with valid data after it;
//     bit rot, not a crash. Recovery quarantines the file (renames it
//     to `<name>.corrupt`, preserving the evidence) and rewrites the
//     undamaged prefix as a fresh journal.
//
// Layout:
//
//	header:  "ASJ1" | uint32 version (=1) | uint64 file-id     (16 B)
//	record:  uint32 payloadLen | uint32 CRC-32C | uint64 file-id |
//	         uint64 message-id | payload                   (24+n B)
//
// The CRC (Castagnoli) covers everything in the record except itself:
// the length field, both identifiers and the payload. All integers are
// big-endian, matching the wire format.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"asymshare/internal/rlnc"
)

const (
	journalMagic   = "ASJ1"
	journalVersion = 1
	headerLen      = 16
	recordHdrLen   = 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTornTail and errCorruptRecord classify journal read failures for
// the recovery policy; neither escapes the package.
var (
	errTornTail      = errors.New("store: torn journal tail")
	errCorruptRecord = errors.New("store: corrupt journal record")
)

// encodeHeader renders the 16-byte journal header.
func encodeHeader(fileID uint64) []byte {
	hdr := make([]byte, headerLen)
	copy(hdr, journalMagic)
	binary.BigEndian.PutUint32(hdr[4:], journalVersion)
	binary.BigEndian.PutUint64(hdr[8:], fileID)
	return hdr
}

// parseHeader validates a journal header and returns the embedded
// file-id.
func parseHeader(hdr []byte) (uint64, error) {
	if len(hdr) < headerLen || string(hdr[:4]) != journalMagic {
		return 0, fmt.Errorf("%w: bad journal magic", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(hdr[4:]); v != journalVersion {
		return 0, fmt.Errorf("%w: journal version %d", ErrCorrupt, v)
	}
	return binary.BigEndian.Uint64(hdr[8:]), nil
}

// appendRecord frames msg as one record at the end of dst, in place,
// and returns the extended slice.
func appendRecord(dst []byte, msg *rlnc.Message) []byte {
	var hdr [recordHdrLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(msg.Payload)))
	binary.BigEndian.PutUint64(hdr[8:], msg.FileID)
	binary.BigEndian.PutUint64(hdr[16:], msg.MessageID)
	at := len(dst)
	dst = append(append(dst, hdr[:]...), msg.Payload...)
	binary.BigEndian.PutUint32(dst[at+4:], recordCRC(dst[at:]))
	return dst
}

// recordCRC computes the Castagnoli CRC over a framed record buffer,
// skipping the CRC field itself.
func recordCRC(buf []byte) uint32 {
	crc := crc32.Update(0, castagnoli, buf[0:4])
	return crc32.Update(crc, castagnoli, buf[8:])
}

// recordIDs returns the file-id and message-id a framed record names.
func recordIDs(rec []byte) (fileID, messageID uint64) {
	return binary.BigEndian.Uint64(rec[8:16]), binary.BigEndian.Uint64(rec[16:24])
}

// readRecord reads the next record from r into buf, growing it only
// when the record does not fit, and returns buf holding exactly that
// framed record — recovery streams a whole journal through one buffer.
// remaining is the byte count left in the file, used to classify
// failures: a record that could not fit in the remaining bytes is a
// torn tail; a record fully present but failing validation is interior
// corruption.
func readRecord(r io.Reader, remaining int64, buf []byte) ([]byte, error) {
	var hdr [recordHdrLen]byte
	if remaining < recordHdrLen {
		return buf, errTornTail
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, errTornTail
	}
	payloadLen := binary.BigEndian.Uint32(hdr[:4])
	recLen := int64(recordHdrLen) + int64(payloadLen)
	if payloadLen > maxRecordPayload {
		// A garbage length field: if the claimed record runs past EOF
		// the length itself was torn; if it would have fit, something
		// rotted in place.
		if recLen > remaining {
			return buf, errTornTail
		}
		return buf, fmt.Errorf("%w: record of %d bytes", errCorruptRecord, payloadLen)
	}
	if recLen > remaining {
		return buf, errTornTail
	}
	if int64(cap(buf)) < recLen {
		buf = make([]byte, recLen)
	}
	buf = buf[:recLen]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[recordHdrLen:]); err != nil {
		return buf, errTornTail
	}
	if got, want := recordCRC(buf), binary.BigEndian.Uint32(hdr[4:8]); got != want {
		return buf, fmt.Errorf("%w: crc %08x != %08x", errCorruptRecord, got, want)
	}
	return buf, nil
}

// readRecordAt reads the record the index places at off into rec, whose
// length is the indexed record length, and checks it before anything
// is served from it: the CRC, the length field, and that the record is
// (fileID, messageID)'s. An offset goes stale when the file under it is
// rewritten or damaged behind the index's back, so a mismatch is
// ErrCorrupt — another message's bytes are never returned. An I/O
// failure comes back wrapped, not as corruption.
func readRecordAt(r io.ReaderAt, rec []byte, off int64, fileID, messageID uint64) error {
	if _, err := r.ReadAt(rec, off); err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("%w: record (%d,%d) at %d runs past the journal's end", ErrCorrupt, fileID, messageID, off)
		}
		return fmt.Errorf("store: read record (%d,%d): %w", fileID, messageID, err)
	}
	if got, want := recordCRC(rec), binary.BigEndian.Uint32(rec[4:8]); got != want {
		return fmt.Errorf("%w: record (%d,%d) at %d: crc %08x != %08x", ErrCorrupt, fileID, messageID, off, got, want)
	}
	fid, mid := recordIDs(rec)
	if n := binary.BigEndian.Uint32(rec[:4]); fid != fileID || mid != messageID || int(n) != len(rec)-recordHdrLen {
		return fmt.Errorf("%w: record at %d is (%d,%d) of %d bytes, index names (%d,%d) of %d",
			ErrCorrupt, off, fid, mid, n, fileID, messageID, len(rec)-recordHdrLen)
	}
	return nil
}
