package layout

import (
	"repro/internal/vlsi"
)

// Closed-form areas and wire lengths for the two "fast but large"
// baseline networks, taken from the layouts the paper cites rather
// than re-derived geometrically:
//
//   - PSN: the shuffle-exchange layout of Kleitman, Leighton, Lepley
//     and Miller [14], Θ(N²/log² N) area.
//   - CCC: the layout of Preparata and Vuillemin [23], Θ(N²/log² N)
//     area with longest wires Θ(N/log N).
//
// The tables in the paper use only these asymptotic areas, so a
// documented constant factor is all a reproduction needs; the
// functional behaviour of both networks is simulated in full by
// internal/psn and internal/ccc.

// psnAreaConst and cccAreaConst absorb the constant factors of the
// cited layouts. They are fixed once; every experiment uses the same
// values so cross-network comparisons are consistent.
const (
	psnAreaConst = 4.0
	cccAreaConst = 4.0
)

// PSNArea returns the chip area of an n-processor shuffle-exchange
// network under the layout of [14]: Θ(n²/log² n), with each processor
// additionally charged wordBits area for its registers.
func PSNArea(n, wordBits int) vlsi.Area {
	if n < 2 {
		return vlsi.Area(wordBits + 1)
	}
	l := float64(vlsi.Log2Ceil(n))
	wires := psnAreaConst * float64(n) * float64(n) / (l * l)
	procs := float64(n) * float64(wordBits) * 4
	return vlsi.Area(int64(wires + procs))
}

// PSNMaxWire returns the longest wire in the PSN layout, Θ(n/log n)
// — the length that costs the shuffle network an extra log N factor
// per step under Thompson's model (paper Section I-A).
func PSNMaxWire(n int) int {
	if n < 4 {
		return 2
	}
	return n / vlsi.Log2Ceil(n)
}

// CCCArea returns the chip area of a cube-connected-cycles network
// with n processors (n = 2^c · c for some c) under the layout of
// [23]: Θ(n²/log² n) plus register area.
func CCCArea(n, wordBits int) vlsi.Area {
	if n < 2 {
		return vlsi.Area(wordBits + 1)
	}
	l := float64(vlsi.Log2Ceil(n))
	wires := cccAreaConst * float64(n) * float64(n) / (l * l)
	procs := float64(n) * float64(wordBits) * 4
	return vlsi.Area(int64(wires + procs))
}

// CCCMaxWire returns the longest wire in the CCC layout, Θ(n/log n):
// "the longest wires in the VLSI layout of the CCC are O(N/log N)
// units long and hence have an O(log N) delay associated with them"
// (Section I-A).
func CCCMaxWire(n int) int {
	if n < 4 {
		return 2
	}
	return n / vlsi.Log2Ceil(n)
}

// CCCDimWire returns the length of a cube wire of dimension d in the
// CCC layout. Dimension-d wires connect cycles 2^d apart in the
// hypercube order; in the cited layout their length grows
// geometrically with d up to the Θ(n/log n) maximum.
func CCCDimWire(n, d int) int {
	maxW := CCCMaxWire(n)
	l := 2 << d
	if l > maxW {
		l = maxW
	}
	if l < 2 {
		l = 2
	}
	return l
}
