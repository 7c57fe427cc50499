package layout

import (
	"fmt"

	"repro/internal/vlsi"
)

// TreeGeom is the geometry of one embedded complete binary tree: the
// Manhattan length of every edge, indexed by the heap index of the
// child node. Node 1 is the root, node v has children 2v and 2v+1,
// and the K leaves are nodes K..2K−1. EdgeLen[v] is the length of the
// wire between node v and its parent (entries 0 and 1 are unused).
//
// The routing engine in internal/tree consumes this: under Thompson's
// model the per-edge delay is the delay of a wire of this measured
// length, so the Θ(log² N) cost of the paper's primitives emerges
// from geometry rather than being asserted.
type TreeGeom struct {
	K       int
	EdgeLen []int
}

// Validate checks structural invariants.
func (g *TreeGeom) Validate() error {
	if !vlsi.IsPow2(g.K) {
		return fmt.Errorf("layout: tree over %d leaves; want a power of two", g.K)
	}
	if len(g.EdgeLen) != 2*g.K {
		return fmt.Errorf("layout: EdgeLen has %d entries, want %d", len(g.EdgeLen), 2*g.K)
	}
	for v := 2; v < 2*g.K; v++ {
		if g.EdgeLen[v] < 1 {
			return fmt.Errorf("layout: edge %d has non-positive length %d", v, g.EdgeLen[v])
		}
	}
	return nil
}

// EmbedTree computes node positions and edge lengths for a complete
// binary tree whose leaves sit at the given 1-D coordinates, with the
// internal nodes in a channel of the given number of wiring tracks —
// the embedding used for every tree in this repository. Exported for
// substrates (e.g. the three-dimensional mesh of trees) that lay
// trees over their own pitches.
func EmbedTree(leafPos []int, tracks int) ([]int, *TreeGeom) {
	return embedTree(leafPos, tracks)
}

// embedTree computes node positions and edge lengths for a complete
// binary tree whose K leaves sit at the given 1-D coordinates (the
// centres of the base processors along a row or column), with the
// internal nodes embedded in a channel of the given number of wiring
// tracks next to the leaves. This is the embedding of the paper's
// Fig. 1: each row (column) tree lives in the Θ(log N)-track strip
// between adjacent rows (columns) of the base.
//
// It returns the per-node 1-D positions along the row (index by heap
// node) and the TreeGeom. Track t of the channel is at perpendicular
// offset t+1 from the leaf line; internal nodes of height h use track
// min(h, tracks) so the channel never overflows.
func embedTree(leafPos []int, tracks int) ([]int, *TreeGeom) {
	k := len(leafPos)
	if !vlsi.IsPow2(k) {
		panic(fmt.Sprintf("layout: embedTree over %d leaves", k))
	}
	if tracks < 1 {
		tracks = 1
	}
	depth := vlsi.Log2Floor(k)
	pos := make([]int, 2*k)
	off := make([]int, 2*k) // perpendicular offset from the leaf line
	for j := 0; j < k; j++ {
		pos[k+j] = leafPos[j]
		off[k+j] = 0
	}
	for v := k - 1; v >= 1; v-- {
		pos[v] = (pos[2*v] + pos[2*v+1]) / 2
		h := depth - vlsi.Log2Floor(v) // height of node v above leaves
		t := h
		if t > tracks {
			t = tracks
		}
		off[v] = t
	}
	geom := &TreeGeom{K: k, EdgeLen: make([]int, 2*k)}
	for v := 2; v < 2*k; v++ {
		p := v / 2
		l := abs(pos[v]-pos[p]) + abs(off[v]-off[p])
		if l < 1 {
			l = 1
		}
		geom.EdgeLen[v] = l
	}
	return pos, geom
}

// treeWires converts an embedded tree into chip wires. axis selects
// whether the 1-D positions run along X ("row" tree: wires in the
// strip above baseline Y) or along Y ("column" tree: strip left of
// baseline X). baseline is the fixed coordinate of the leaf line and
// sign the direction of the channel (-1 places it before the
// baseline).
func treeWires(pos []int, tracks int, baseline, sign int, alongX bool, kind string) []Wire {
	k := len(pos) / 2
	depth := vlsi.Log2Floor(k)
	offset := func(v int) int {
		if v >= k {
			return 0
		}
		h := depth - vlsi.Log2Floor(v)
		if h > tracks {
			h = tracks
		}
		return h
	}
	pt := func(v int) Point {
		o := baseline + sign*offset(v)
		if alongX {
			return Point{X: pos[v], Y: o}
		}
		return Point{X: o, Y: pos[v]}
	}
	var wires []Wire
	for v := 2; v < 2*k; v++ {
		wires = append(wires, Wire{From: pt(v), To: pt(v / 2), Kind: kind})
	}
	return wires
}
