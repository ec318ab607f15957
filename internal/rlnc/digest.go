package rlnc

// Batch digests. The initialization phase digests every message it
// pre-fabricates (Sec. III-A, III-C), and a batch's messages are
// independent and of equal length, so on a CPU with the vector arm
// (digest_amd64.go) eight of them are hashed side by side. What is
// computed does not change: dst[i] is msgs[i].Digest(), byte for byte.

// digestLanes is how many messages the vector arm hashes at once.
const digestLanes = 8

// DigestBatch sets dst[i] to msgs[i].Digest() for every message. dst
// must be at least as long as msgs. Where the CPU has the eight-lane
// kernel, full groups of eight messages with equal payload lengths go
// through it; from the first group that is short (a generation with
// k < 8, a remainder) or unequal (never an Encoder's batch) on, messages
// are hashed one at a time.
func DigestBatch(dst []Digest, msgs []*Message) {
	dst = dst[:len(msgs)]
	for haveDigestLanes && len(msgs) >= digestLanes && equalPayloadLens(msgs[:digestLanes]) {
		digest8(dst[:digestLanes], msgs[:digestLanes])
		dst, msgs = dst[digestLanes:], msgs[digestLanes:]
	}
	digestEach(dst, msgs)
}

func digestEach(dst []Digest, msgs []*Message) {
	for i, m := range msgs {
		dst[i] = m.Digest()
	}
}

func equalPayloadLens(msgs []*Message) bool {
	for _, m := range msgs[1:] {
		if len(m.Payload) != len(msgs[0].Payload) {
			return false
		}
	}
	return true
}
