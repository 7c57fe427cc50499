package workload

import (
	"math"
	mathbits "math/bits"
)

// xorshiftMul is the xorshift64* output multiplier Uint64 applies.
const xorshiftMul = 0x2545F4914F6CDD1D

// step is the xorshift64 state transition Uint64 makes before it
// multiplies: a linear map on GF(2)^64, which is what lets gnpEach
// jump a state ahead without stepping through the skipped draws.
func step(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// drawThreshold is the integer form of Float64() < p: a state x draws
// below p exactly when (x·xorshiftMul)>>11 < drawThreshold(p), that
// is, when x·xorshiftMul ≤ drawThreshold(p)·2¹¹ − 1.
// Float64 returns u/2⁵³ for the 53-bit integer u = output>>11, and
// both the conversion and the division by a power of two are exact,
// so u/2⁵³ < p holds iff u < p·2⁵³, iff u < ⌈p·2⁵³⌉ (p·2⁵³ is itself
// exact for every p < 1, subnormals included). p ≤ 0 and NaN draw
// nothing; p ≥ 1 draws every pair.
func drawThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// charPoly is the characteristic polynomial of step over GF(2),
// x⁶⁴ + Σ cᵢxⁱ with bit i holding cᵢ (the x⁶⁴ term is implied). By
// Cayley–Hamilton, stepping t times equals applying (xᵗ mod charPoly)
// to the step matrix. TestCharPoly derives it from a state sequence by
// Berlekamp–Massey, and TestJumpMatchesStepping fails for any other
// value.
const charPoly = 0x0018b73aa7cc9b71

// timesX returns r·x mod charPoly for a residue r of degree < 64.
func timesX(r uint64) uint64 {
	if r>>63 != 0 {
		return r<<1 ^ charPoly
	}
	return r << 1
}

// jumpPoly returns xᵗ mod charPoly: the residue jump applies to move a
// state t steps ahead. Left-to-right square-and-multiply, each square
// a 64-step Horner product, so a jump by t < 2ᵇ costs at most b×64
// shift-and-xor steps.
func jumpPoly(t uint64) uint64 {
	r := uint64(1)
	for bit := mathbits.Len64(t) - 1; bit >= 0; bit-- {
		sq := uint64(0)
		for i := 63; i >= 0; i-- {
			sq = timesX(sq)
			if r>>uint(i)&1 != 0 {
				sq ^= r
			}
		}
		r = sq
		if t>>uint(bit)&1 != 0 {
			r = timesX(r)
		}
	}
	return r
}

// jump applies the residue j = jumpPoly(t) to state x: Σ jᵢ·stepⁱ(x),
// which is stepᵗ(x).
func jump(x, j uint64) uint64 {
	var acc uint64
	for ; j != 0; j >>= 1 {
		if j&1 != 0 {
			acc ^= x
		}
		x = step(x)
	}
	return acc
}

// pairCursor maps pair indices, ascending, back to (i, j): pair k is
// the k-th vertex pair i < j in row-major order.
type pairCursor struct {
	n, i   int
	rowEnd int // one past the index of row i's last pair
	edge   func(i, j int)
}

func (c *pairCursor) emit(k int) {
	for k >= c.rowEnd {
		c.i++
		c.rowEnd += c.n - 1 - c.i
	}
	c.edge(c.i, c.n-c.rowEnd+k)
}

// drawRun draws pairs k..end-1 one state at a time from state x,
// emitting those whose output is at most lim, and returns the state
// after the last draw.
func drawRun(x uint64, k, end int, lim uint64, c *pairCursor) uint64 {
	for ; k < end; k++ {
		x = step(x)
		if x*xorshiftMul <= lim {
			c.emit(k)
		}
	}
	return x
}

const (
	// laneMinPairs is the pair count below which gnpEach draws on one
	// lane, where three jumps cost more than four lanes save. Measured
	// at p = 2/n on a 2-vCPU VM, the two break even near 3,200 pairs
	// (n = 80); one lane is 15% faster at 2,016 pairs (n = 64) and four
	// lanes 22% faster at 8,128 (n = 128), so every cut between those
	// two power-of-two sizes draws served graphs the same way.
	laneMinPairs = 4096
	// laneHits bounds the hits lanes 1–3 buffer on the stack. At the
	// served density p = 2/n a quarter of G(1024, p) holds about 256;
	// a lane that overflows finishes on one lane after the ones before
	// it have been emitted.
	laneHits = 512
)

// gnpEach is the one G(n, p) draw loop. Its contract is the plain
// loop it replaces: one Float64 per vertex pair i < j in row-major
// order, edge(i, j) called, in that order, for each pair drawn below
// p, and the RNG left as after the last draw.
//
// It keeps that contract while running four xorshift64 lanes in
// registers, one per quarter of the pair sequence. Lane ℓ starts from
// the state the plain loop would hold before its first pair, found by
// jump (stepping is linear over GF(2), so t steps are one polynomial
// in the step matrix), so every lane draws exactly the numbers the
// plain loop draws for its pairs; drawThreshold makes the comparison
// exact. Lane 0 emits its hits as it goes; lanes 1–3 record theirs as
// pair indices and are emitted after it, in lane order, so the edge
// sequence is unchanged. The last lane ends where the plain loop
// ends, so its state is the RNG's final state. The buffers live on
// the stack, so a call allocates nothing beyond what edge does.
func (r *RNG) gnpEach(n int, p float64, edge func(i, j int)) {
	thr := drawThreshold(p)
	pairs := n * (n - 1) / 2
	if thr == 0 { // nothing to emit: only the final state matters
		r.state = jump(r.state, jumpPoly(uint64(pairs)))
		return
	}
	lim := thr<<11 - 1 // wraps to 2⁶⁴−1, every output, when thr = 2⁵³
	c := pairCursor{n: n, rowEnd: n - 1, edge: edge}
	if pairs < laneMinPairs {
		r.state = drawRun(r.state, 0, pairs, lim, &c)
		return
	}
	q := (pairs + 3) / 4 // lanes 0–2 draw q pairs, lane 3 the rest
	jq := jumpPoly(uint64(q))
	x0 := r.state
	x1 := jump(x0, jq)
	x2 := jump(x1, jq)
	x3 := jump(x2, jq)

	var hits [3][laneHits]uint32
	var cnt [3]int
	var cutX [3]uint64 // state after the first hit that did not fit
	var cutK [3]int    // and that hit's offset in its lane
	record := func(l, k int, x uint64) {
		switch {
		case cnt[l] < laneHits:
			hits[l][cnt[l]] = uint32(k)
		case cnt[l] == laneHits:
			cutX[l], cutK[l] = x, k
		default:
			return
		}
		cnt[l]++
	}
	last := pairs - 3*q
	for k := 0; k < last; k++ {
		x0, x1, x2, x3 = step(x0), step(x1), step(x2), step(x3)
		if x0*xorshiftMul <= lim {
			c.emit(k)
		}
		if x1*xorshiftMul <= lim {
			record(0, k, x1)
		}
		if x2*xorshiftMul <= lim {
			record(1, k, x2)
		}
		if x3*xorshiftMul <= lim {
			record(2, k, x3)
		}
	}
	for k := last; k < q; k++ {
		x0, x1, x2 = step(x0), step(x1), step(x2)
		if x0*xorshiftMul <= lim {
			c.emit(k)
		}
		if x1*xorshiftMul <= lim {
			record(0, k, x1)
		}
		if x2*xorshiftMul <= lim {
			record(1, k, x2)
		}
	}
	r.state = x3

	for l := range hits {
		base, end := (l+1)*q, min((l+2)*q, pairs)
		for _, k := range hits[l][:min(cnt[l], laneHits)] {
			c.emit(base + int(k))
		}
		if cnt[l] > laneHits {
			c.emit(base + cutK[l])
			drawRun(cutX[l], base+cutK[l]+1, end, lim, &c)
		}
	}
}
