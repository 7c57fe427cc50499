// Package graph implements the paper's Section III graph algorithms
// on the orthogonal trees network: connected components of an
// undirected N-vertex graph (a mesh-of-trees implementation of the
// Hirschberg–Chandra–Sarwate CONNECT algorithm [12]) and a minimum
// spanning tree (Sollin/Borůvka on the weight matrix). Both run on an
// (N×N)-OTN holding the adjacency/weight matrix in the base, take
// Θ(log⁴ N) bit-times under the log-delay model, and are the problems
// for which Table III shows the OTN/OTC's A·T² beating every other
// network class.
package graph

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Registers used by the graph programs.
var (
	regAdj  = core.NewReg("adj")  // adjacency bit A(v,u) at BP(v,u)
	regDcol = core.NewReg("Dcol") // D(u) broadcast down column u
	regDrow = core.NewReg("Drow") // D(v) broadcast along row v
	regCand = core.NewReg("cand") // hooking candidate at BP(v,u)
	regT    = core.NewReg("T")    // per-component candidate staging
	regW    = core.NewReg("W")    // weight matrix W(v,u)
)

// LoadGraph stores the adjacency matrix of g into the base of m, in
// the adj register.
func LoadGraph(m *core.Machine, g *workload.Graph) {
	if g.N != m.K {
		panic(fmt.Sprintf("graph: %d vertices on a (%d×%d)-OTN", g.N, m.K, m.K))
	}
	for v := 0; v < g.N; v++ {
		for u := 0; u < g.N; u++ {
			var a int64
			if g.Adj[v][u] {
				a = 1
			}
			m.Set(regAdj, v, u, a)
		}
	}
}

// ConnectedComponents labels the vertices of the graph resident in m
// (via LoadGraph): the returned slice maps every vertex to its
// component's representative. The completion time covers the whole
// OTN program.
//
// The algorithm is the CONNECT scheme the paper cites: iterate
//
//	(a) every vertex finds the minimum foreign component among its
//	    neighbours (two tree broadcasts + a MIN ascent per row);
//	(b) every component takes the minimum of its members' candidates
//	    (a selective row broadcast placing the candidate at column
//	    D(v), then a MIN ascent per column);
//	(c) supervertex roots hook to their candidates; the only possible
//	    cycles are mutual pairs, broken toward the smaller label;
//	(d) ⌈log N⌉ pointer-jumping steps collapse the hooking forest.
//
// Each iteration merges every non-isolated component with another, so
// ⌈log N⌉ iterations suffice; with Θ(log² N) per primitive and
// Θ(log N) jumps per iteration the total is Θ(log⁴ N).
func ConnectedComponents(m *core.Machine, rel vlsi.Time) ([]int64, vlsi.Time) {
	n := m.K
	d := make([]int64, n)
	for v := range d {
		d[v] = int64(v)
	}
	t := rel
	maxRounds := vlsi.Log2Ceil(n) + 2
	for round := 0; round < maxRounds; round++ {
		var changed bool
		d, t, changed = ccRound(m, d, t)
		if !changed {
			break
		}
	}
	return d, t
}

// ComponentsRound exposes one hook-and-contract iteration for
// step-decomposed execution (the recovery supervisor of
// internal/resilience re-runs the exact loop body ConnectedComponents
// uses, one checkpointable step per round). It returns the new
// labels, the completion time and whether anything moved.
func ComponentsRound(m *core.Machine, d []int64, rel vlsi.Time) ([]int64, vlsi.Time, bool) {
	return ccRound(m, d, rel)
}

// ComponentsMaxRounds is the iteration bound ConnectedComponents uses
// for an n-vertex graph.
func ComponentsMaxRounds(n int) int { return vlsi.Log2Ceil(n) + 2 }

// ccRound performs one hook-and-contract iteration, returning the new
// labels, the completion time and whether anything moved.
func ccRound(m *core.Machine, d []int64, rel vlsi.Time) ([]int64, vlsi.Time, bool) {
	n := m.K

	// (a1) D(u) down every column: BP(v,u).Dcol = D(u).
	t := m.ParDo(false, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		m.SetColRoot(vec.Index, d[vec.Index])
		return m.RootToLeaf(vec, nil, regDcol, r)
	})
	// (a2) D(v) along every row: BP(v,u).Drow = D(v).
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		m.SetRowRoot(vec.Index, d[vec.Index])
		return m.RootToLeaf(vec, nil, regDrow, r)
	})
	// (a3) candidate at BP(v,u): D(u) if the edge exists and joins
	// different components.
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			c := core.Null
			if m.Get(regAdj, v, u) == 1 && m.Get(regDcol, v, u) != m.Get(regDrow, v, u) {
				c = m.Get(regDcol, v, u)
			}
			m.Set(regCand, v, u, c)
		}
	}
	t = m.Local(t, m.CostCompare())
	// (a4) C(v) = min candidate along row v.
	cOf := make([]int64, n)
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		done := m.MinLeafToRoot(vec, nil, regCand, r)
		cOf[vec.Index] = m.RowRoot(vec.Index)
		return done
	})

	// (b1) stage C(v) at BP(v, D(v)) — a selective row broadcast
	// (the row root already holds C(v)).
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			m.Set(regT, v, u, core.Null)
		}
	}
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		v := vec.Index
		if cOf[v] == core.Null {
			return r
		}
		m.SetRowRoot(v, cOf[v])
		return m.RootToLeaf(vec, core.One(int(d[v])), regT, r)
	})
	// (b2) T(s) = min over column s.
	hook := make([]int64, n)
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		done := m.MinLeafToRoot(vec, nil, regT, r)
		hook[vec.Index] = m.ColRoot(vec.Index)
		return done
	})

	// (c) resolve hooks. Hooking to the minimum neighbouring
	// component admits only 2-cycles (along any longer cycle the
	// labels would descend forever); break them toward the smaller
	// label. The E(E(s)) lookup is one more column broadcast + row
	// pick on chip; its values are already at the roots, so charge
	// one LEAFTOLEAF round.
	newD := append([]int64(nil), d...)
	changed := false
	for s := 0; s < n; s++ {
		if d[s] != int64(s) {
			continue // not a root
		}
		e := hook[s]
		if e == core.Null {
			continue
		}
		if hook[e] == int64(s) && int64(s) < e {
			continue // the partner (larger) keeps its hook
		}
		newD[s] = e
		changed = true
	}
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.RootToLeaf(vec, core.One(vec.Index%m.K), regT, r)
	})

	// (d) pointer jumping: D(v) := D(D(v)), ⌈log N⌉ times. Each jump
	// broadcasts D down the columns and lets row v pick column
	// D(v)'s value.
	for j := 0; j < vlsi.Log2Ceil(n); j++ {
		prev := append([]int64(nil), newD...)
		t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			m.SetColRoot(vec.Index, prev[vec.Index])
			return m.RootToLeaf(vec, nil, regDcol, r)
		})
		t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			v := vec.Index
			done := m.LeafToRoot(vec, core.One(int(prev[v])), regDcol, r)
			newD[v] = m.RowRoot(v)
			return done
		})
	}
	return newD, t, changed
}

// RefComponents is the union-find reference labelling; labels are the
// minimum vertex of each component.
func RefComponents(g *workload.Graph) []int64 {
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.N; v++ {
		for u := v + 1; u < g.N; u++ {
			if g.Adj[v][u] {
				a, b := find(v), find(u)
				if a != b {
					if a < b {
						parent[b] = a
					} else {
						parent[a] = b
					}
				}
			}
		}
	}
	out := make([]int64, g.N)
	min := make(map[int]int64, g.N)
	for v := 0; v < g.N; v++ {
		r := find(v)
		if cur, ok := min[r]; !ok || int64(v) < cur {
			min[r] = int64(v)
		}
	}
	for v := 0; v < g.N; v++ {
		out[v] = min[find(v)]
	}
	return out
}

// SamePartition reports whether two labelings induce the same
// partition of 0..n-1.
func SamePartition(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int64]int64{}
	rev := map[int64]int64{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := rev[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}
