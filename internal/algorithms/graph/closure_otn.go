package graph

import (
	"repro/internal/core"
	"repro/internal/vlsi"
)

// ClosureOTN computes the reflexive-transitive closure of the graph
// resident in m (via LoadGraph) directly on the (N×N)-OTN — the
// N-side counterpart of TransitiveClosure, which needs the N²-side
// BigMachine that is unbuildable past N≈64. One Boolean squaring
// R ← R ∨ R² is evaluated column-by-column of the inner dimension:
// for each l, row trees fan R(·,l) along the rows and column trees
// fan R(l,·) down the columns (two LEAFTOLEAF rounds), then every BP
// accumulates the AND locally (one bit-op). With the diagonal set
// first, R² ⊇ R, so ⌈log N⌉ squarings with an unchanged-early-exit
// reach the fixpoint.
//
// This program is deliberately primitive-by-primitive identical to
// the packed engine's fused closure schedule (internal/packed), which
// replays its durations from the fused tables; the differential fuzz
// pins both the returned matrix and the completion time against this
// function at every overlapping N.
//
// The machine's adj register is updated in place to the closure. The
// returned matrix aliases fresh storage.
func ClosureOTN(m *core.Machine, rel vlsi.Time) ([][]int64, vlsi.Time) {
	n := m.K

	// Reflexive diagonal: one local bit-op per BP (only (v,v) writes).
	for v := 0; v < n; v++ {
		m.Set(regAdj, v, v, 1)
	}
	t := m.Local(rel, 1)

	for round := 0; round < vlsi.Log2Ceil(n); round++ {
		// acc(v,u), staged in cand, starts all-zero (register
		// initialization, like b1's T staging in ccRound).
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				m.Set(regCand, v, u, 0)
			}
		}
		for l := 0; l < n; l++ {
			// Drow(v,u) = R(v,l): each row gathers its l-th entry and
			// floods it back down.
			t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
				return m.LeafToLeaf(vec, core.One(l), regAdj, nil, regDrow, r)
			})
			// Dcol(v,u) = R(l,u).
			t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
				return m.LeafToLeaf(vec, core.One(l), regAdj, nil, regDcol, r)
			})
			// acc |= Drow ∧ Dcol: one local bit-op. Read per-cell (not a
			// per-row representative): under stuck BPs the flooded
			// values can differ cell to cell, and each BP computes on
			// what it actually holds.
			for v := 0; v < n; v++ {
				for u := 0; u < n; u++ {
					if m.Get(regDrow, v, u) != 0 && m.Get(regDcol, v, u) != 0 {
						m.Set(regCand, v, u, 1)
					}
				}
			}
			t = m.Local(t, 1)
		}
		// Merge: R ← acc (acc ⊇ R via the diagonal), detecting change.
		// One local bit-op, like TransitiveClosure's ∨ step.
		changed := false
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if m.Get(regCand, v, u) != 0 && m.Get(regAdj, v, u) == 0 {
					m.Set(regAdj, v, u, 1)
					changed = true
				}
			}
		}
		t = m.Local(t, 1)
		if !changed {
			break
		}
	}

	out := make([][]int64, n)
	flat := make([]int64, n*n)
	for v := range out {
		out[v], flat = flat[:n:n], flat[n:]
		for u := 0; u < n; u++ {
			out[v][u] = m.Get(regAdj, v, u)
		}
	}
	return out, t
}
