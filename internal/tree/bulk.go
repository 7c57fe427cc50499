package tree

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/vlsi"
)

// NewBulk builds count identical routers over one measured geometry
// in O(count·K) with a handful of allocations: the per-edge first-bit
// latencies and the shape signature are computed once on a prototype,
// and every clone's mutable arrays (edge occupancy, scratch buffers)
// are carved out of shared contiguous slabs — one allocation per
// array kind instead of nine per tree. The immutable first[] slice is
// shared across the clones; nothing writes it after construction
// (fault views, plans and occupancy all live in per-clone state).
//
// Building an N=1024 OTN takes 2N = 2048 trees of 2048 nodes each;
// the per-tree constructor's ~9 allocations and re-derived latency
// table made construction the dominant cost at that scale. core.New
// makes one call for the row trees and one for the column trees.
func NewBulk(geom *layout.TreeGeom, cfg vlsi.Config, count int) ([]*Tree, error) {
	return buildBulk(geom, cfg, false, count)
}

// NewScaledBulk is NewBulk over trees built with Thompson's "scaling"
// technique [31] (the paper's closing remark of Section II-B and the
// footnote of Section VII): each IP is a constant factor larger than
// its children, so the long tree edges are driven by pre-distributed
// amplifier stages and the per-edge first-bit latency drops to Θ(1)
// while the total area stays Θ(N² log² N). Communication primitives
// then cost Θ(log N) instead of Θ(log² N).
func NewScaledBulk(geom *layout.TreeGeom, cfg vlsi.Config, count int) ([]*Tree, error) {
	return buildBulk(geom, cfg, true, count)
}

func buildBulk(geom *layout.TreeGeom, cfg vlsi.Config, scaled bool, count int) ([]*Tree, error) {
	if count <= 0 {
		return nil, fmt.Errorf("tree: non-positive bulk count %d", count)
	}
	proto, err := build(geom, cfg, scaled)
	if err != nil {
		return nil, err
	}
	out := make([]*Tree, count)
	out[0] = proto
	if count == 1 {
		return out, nil
	}
	n2, k := 2*geom.K, geom.K
	rest := count - 1
	trees := make([]Tree, rest)
	// One slab per array kind, sliced with full-capacity expressions
	// so a clone can never grow into its neighbour.
	times := make([]vlsi.Time, rest*(2*n2+2*n2+k+2*k))
	flags := make([]bool, rest*n2)
	carve := func(n int) []vlsi.Time {
		s := times[:n:n]
		times = times[n:]
		return s
	}
	for i := range trees {
		t := &trees[i]
		t.geom, t.cfg, t.nodeLatency = proto.geom, proto.cfg, proto.nodeLatency
		t.scaled = proto.scaled
		t.first = proto.first // immutable after build; shared
		t.shapeSig = proto.shapeSig
		t.cache = proto.cache
		t.adopt = true
		t.upFree = carve(n2)
		t.downFree = carve(n2)
		t.scratch.head = carve(n2)
		t.scratch.ready = carve(n2)
		t.scratch.perLeaf = carve(k)
		t.scratch.rels = carve(k)
		t.scratch.redo = carve(k)
		t.scratch.hasWord, flags = flags[:n2:n2], flags[n2:]
		out[1+i] = t
	}
	return out, nil
}
