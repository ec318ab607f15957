package rlnc

// Batch digests. The initialization phase digests every message it
// pre-fabricates (Sec. III-A, III-C), and a batch's messages are
// independent and of equal length, so on a CPU with the vector arm
// (digest_amd64.go) eight of them are hashed side by side; the decode
// pipeline authenticates a generation's arrivals the same way. What is
// computed does not change: dst[i] is msgs[i].Digest(), byte for byte.

// digestLanes is how many messages the vector arm hashes at once.
const digestLanes = 8

// DigestBatch sets dst[i] to msgs[i].Digest() for every message and
// returns how many of them went through the eight-lane kernel. dst must
// be at least as long as msgs. Where the CPU has the kernel, messages
// are taken eight at a time while each group's payload lengths are
// equal; a last group of two to seven still takes one lane pass, its
// idle lanes hashing the first message again — a pass costs the same
// whatever its occupancy, and less than two scalar sums. From the first
// unequal group (never an Encoder's batch, never a Pipeline's) on, and
// for a lone message, it is one Message.Digest at a time.
func DigestBatch(dst []Digest, msgs []*Message) (lanes int) {
	dst = dst[:len(msgs)]
	for haveDigestLanes && len(msgs) >= 2 {
		g := min(len(msgs), digestLanes)
		if !equalPayloadLens(msgs[:g]) {
			break
		}
		digest8(dst[:g], msgs[:g])
		dst, msgs = dst[g:], msgs[g:]
		lanes += g
	}
	digestEach(dst, msgs)
	return lanes
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
