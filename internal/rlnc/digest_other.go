//go:build !amd64

package rlnc

// No vector arm off amd64: DigestBatch hashes one message at a time.

const haveDigestLanes = false

func digest8(dst []Digest, msgs []*Message) { digestEach(dst, msgs) }
