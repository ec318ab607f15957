package rlnc

import (
	"crypto/md5"
	"math/rand"
	"testing"
)

// refDigest is the definition (Sec. III-C): MD5 over the serialized
// message, straight from crypto/md5.
func refDigest(t testing.TB, m *Message) Digest {
	t.Helper()
	wire, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return md5.Sum(wire)
}

// randMessage returns a message whose n-byte payload starts off bytes
// into an allocation of its own, so lanes read from unrelated addresses
// at every alignment.
func randMessage(rng *rand.Rand, n, off int) *Message {
	buf := make([]byte, off+n)
	rng.Read(buf)
	return &Message{FileID: rng.Uint64(), MessageID: rng.Uint64(), Payload: buf[off:]}
}

func checkBatch(t testing.TB, msgs []*Message, what string) {
	t.Helper()
	got := make([]Digest, len(msgs)+1)
	var canary Digest
	canary[0] = 0xA5
	got[len(msgs)] = canary
	lanes := DigestBatch(got, msgs)
	if lanes < 0 || lanes > len(msgs) || (!haveDigestLanes && lanes != 0) {
		t.Fatalf("%s: DigestBatch reports %d of %d messages through the lanes (kernel available: %v)",
			what, lanes, len(msgs), haveDigestLanes)
	}
	for i, m := range msgs {
		if want := refDigest(t, m); got[i] != want {
			t.Fatalf("%s: message %d of %d (%d-byte payload): got %v, crypto/md5 says %v",
				what, i, len(msgs), len(m.Payload), got[i], want)
		}
	}
	if got[len(msgs)] != canary {
		t.Fatalf("%s: DigestBatch wrote past len(msgs)", what)
	}
}

// digestBatchDifferential is the table every arm must pass: every
// payload length across the padding boundaries (total length 16+n
// crosses 55/56, 63/64/65, 119/120 and the one- and two-block tails
// after whole blocks), the shipped 128 KiB payload, 1 to 17 messages per
// call (remainders and several groups), short groups of 2 to 7 over the
// same boundaries (idle lanes aliased to the first message), unequal
// lengths inside a call, odd alignments.
func digestBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n <= 200; n++ {
		msgs := make([]*Message, digestLanes)
		for i := range msgs {
			msgs[i] = randMessage(rng, n, i%5)
		}
		checkBatch(t, msgs, "length sweep")
	}
	for _, n := range []int{1 << 17, 1<<17 + 16, 1<<17 - 9, 4096 + 47, 4096 + 48, 4096 + 49} {
		msgs := make([]*Message, digestLanes)
		for i := range msgs {
			msgs[i] = randMessage(rng, n, 3*i+1)
		}
		checkBatch(t, msgs, "long payloads")
	}
	for count := 0; count <= 17; count++ {
		msgs := make([]*Message, count)
		for i := range msgs {
			msgs[i] = randMessage(rng, 300, i)
		}
		checkBatch(t, msgs, "message counts")
	}
	for count := 2; count < digestLanes; count++ {
		for _, n := range []int{0, 39, 40, 47, 48, 49, 103, 104, 112, 1<<17 + 5} {
			msgs := make([]*Message, count)
			for i := range msgs {
				msgs[i] = randMessage(rng, n, (i+count)%7)
			}
			checkBatch(t, msgs, "short group")
			if lanes := DigestBatch(make([]Digest, count), msgs); haveDigestLanes && lanes != count {
				t.Fatalf("short group of %d equal messages: %d through the lanes", count, lanes)
			}
		}
	}
	// One odd length in each position of the first group of two: the
	// whole call must come out right with the lanes refused.
	for odd := 0; odd < digestLanes; odd++ {
		msgs := make([]*Message, 2*digestLanes)
		for i := range msgs {
			n := 192
			if i == odd {
				n = 191
			}
			msgs[i] = randMessage(rng, n, 0)
		}
		checkBatch(t, msgs, "unequal lengths")
	}
	msgs := make([]*Message, 2*digestLanes)
	for i := range msgs {
		n := 500
		if i >= digestLanes {
			n = 65 * i // an equal first group, then every length different
		}
		msgs[i] = randMessage(rng, n, 0)
	}
	checkBatch(t, msgs, "unequal second group")
}

func TestDigestBatchMatchesCryptoMD5(t *testing.T) { digestBatchDifferential(t) }

// digestArms are DigestBatch's arms, fastest first: the AVX-512VL
// lanes, the AVX2 lanes, one Message.Digest at a time.
var digestArms = []string{"vl", "avx2", "scalar"}

// OnDigestArms runs f once per arm the host has, forced down one at a
// time, as subtests named after the arm, so the arms the dispatch would
// not pick here are proven on this machine too. Exported for the
// package's external tests.
func OnDigestArms(t *testing.T, f func(t *testing.T)) {
	for _, arm := range digestArms {
		t.Run(arm, func(t *testing.T) {
			useDigestArm(t, arm)
			f(t)
		})
	}
}

// TestDigestBatchScalarDispatch reruns the differential on every arm.
func TestDigestBatchScalarDispatch(t *testing.T) { OnDigestArms(t, digestBatchDifferential) }

// TestDigestBatchSteadyStateAllocs: digesting a batch allocates
// nothing — the lanes' edge blocks and state live on the stack.
func TestDigestBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	msgs := make([]*Message, digestLanes)
	for i := range msgs {
		msgs[i] = randMessage(rng, 4096, 0)
	}
	dst := make([]Digest, len(msgs))
	if avg := testing.AllocsPerRun(50, func() { DigestBatch(dst, msgs) }); avg != 0 {
		t.Fatalf("DigestBatch allocates %.1f times per batch, want 0", avg)
	}
}

// FuzzDigestBatch drives one call with fuzzer-chosen count, lengths and
// contents: lens picks each message's payload length (cycled), so equal
// and unequal groups both turn up.
func FuzzDigestBatch(f *testing.F) {
	f.Add([]byte("asymmetric channels"), uint8(8), []byte{40})
	f.Add([]byte{}, uint8(8), []byte{0})
	f.Add([]byte{1, 2, 3}, uint8(17), []byte{47, 48, 49})
	f.Add([]byte{0x80}, uint8(9), []byte{39, 39, 39, 39, 39, 39, 39, 39, 40})
	f.Add([]byte("x"), uint8(16), []byte{255})
	for count := uint8(2); count < digestLanes; count++ {
		f.Add([]byte("short group"), count, []byte{16 + count})
	}
	f.Add([]byte{7}, uint8(5), []byte{13, 13, 13, 14, 13})
	f.Fuzz(func(t *testing.T, seed []byte, count uint8, lens []byte) {
		if len(lens) == 0 {
			lens = []byte{0}
		}
		msgs := make([]*Message, int(count)%(3*digestLanes))
		for i := range msgs {
			payload := make([]byte, 3*int(lens[i%len(lens)]))
			for j := range payload {
				if len(seed) > 0 {
					payload[j] = seed[(i+j)%len(seed)] + byte(i*j)
				}
			}
			msgs[i] = &Message{FileID: uint64(len(seed)) << 56, MessageID: uint64(i) * 0x9E3779B97F4A7C15, Payload: payload}
		}
		checkBatch(t, msgs, "fuzz")
	})
}

// BenchmarkDigestBatch hashes eight 128 KiB messages, one row per arm
// the host has.
func BenchmarkDigestBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	msgs := make([]*Message, digestLanes)
	for i := range msgs {
		msgs[i] = randMessage(rng, 1<<17, 0)
	}
	dst := make([]Digest, len(msgs))
	for _, arm := range digestArms {
		b.Run(arm, func(b *testing.B) {
			useDigestArm(b, arm)
			b.SetBytes(int64(len(msgs) * (headerBytes + 1<<17)))
			for i := 0; i < b.N; i++ {
				DigestBatch(dst, msgs)
			}
		})
	}
}
