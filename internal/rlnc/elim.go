package rlnc

// Coefficient-space elimination with recorded row operations. The
// pipeline runs reduceRowCoeffs under its small acceptance lock — a
// K-element pass per echelon row, no payload touched — and replays the
// recorded steps over the payload later, outside the lock, on its job
// runner. Replaying the identical factor sequence over GF arithmetic is
// exact, which is what keeps Pipeline output byte-identical to the
// sequential Decoder.

import "asymshare/internal/gf"

// elimStep records one row operation: fold factor times echelon row
// src into the candidate.
type elimStep struct {
	src    int32
	factor uint32
}

// reduceRowCoeffs reduces cand in place against the echelon rows
// (unit pivots assumed, as reduceRow leaves them), appending each
// applied operation to steps — pass a reused steps[:0] to stay
// allocation-free. It returns the extended steps, the normalization
// scale applied to the surviving pivot (1 when none), and whether cand
// was innovative. The recorded operation sequence is exactly the one
// reduceRow would apply to the payload.
func reduceRowCoeffs(f gf.Field, cand []uint32, echelon [][]uint32, pivots []int, steps []elimStep) ([]elimStep, uint32, bool) {
	for i, er := range echelon {
		p := pivots[i]
		factor := cand[p]
		if factor == 0 {
			continue
		}
		addScaledRow(f, cand, er, factor)
		steps = append(steps, elimStep{src: int32(i), factor: factor})
	}
	lead := leadingIndex(cand)
	if lead < 0 {
		return steps, 1, false
	}
	inv, err := f.Inv(cand[lead])
	if err != nil {
		return steps, 1, false // unreachable: cand[lead] != 0
	}
	if inv != 1 {
		scaleRow(f, cand, inv)
	}
	return steps, inv, true
}

// scaleRow multiplies every element of row by c through gf's
// split-table word kernel.
func scaleRow(f gf.Field, row []uint32, c uint32) {
	gf.MulWords(f, row, c)
}

// addScaledRow computes dst += c * src element-wise through gf's
// split-table word kernel.
func addScaledRow(f gf.Field, dst, src []uint32, c uint32) {
	gf.MulAddWords(f, dst, src, c)
}
