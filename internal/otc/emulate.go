package otc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/tree"
	"repro/internal/vlsi"
)

// This file implements the Section VI block emulation: "if the base
// of the OTN is considered to be composed of squares of
// log N × log N BPs each, then the processing in square (i,j) of the
// OTN can be simulated by cycle (i,j) of the OTC". NewEmulatedOTN
// packages that argument as an executable: a core.Machine whose
// logical row/column trees are cycle-backed routers, so every OTN
// program in this repository (sorting, matrix, graph, DFT) also runs
// with OTC timing and OTC area. The paper derives the OTC's table
// entries exactly this way.
//
// The mapping: logical rows are grouped L at a time onto one physical
// tree ("the ith group is simulated by the ith row tree of the OTC"),
// and logical BP (r, c) lives in cycle (r/L, c/L). One logical
// operation moves one word through the shared physical tree plus a
// cut-through circulation within the cycles; when a pardo issues the
// operation on all logical rows, the L words sharing each physical
// tree pipeline at word intervals through the persistent edge
// occupancy — exactly the Θ(log N)-spaced pipeline of Section V-B,
// and the reason the OTC matches the OTN's time in Θ(log² N) less
// area.

// cycleRouter serves ONE logical row (or column) of the emulated OTN,
// over a physical tree shared with the other L−1 logical rows of its
// group. Logical leaf j lives at cycle j/L of the physical tree.
type cycleRouter struct {
	t   *tree.Tree // shared with the group's other logical rows
	l   int
	w   vlsi.Time // word time
	sh  vlsi.Time // one circulate step
	hop vlsi.Time // per-hop cut-through latency within a cycle

	// per is Broadcast's reusable logical per-leaf buffer (one per
	// router — the physical tree is shared, this is not). Like
	// tree.Broadcast's, it is valid until this router's next
	// operation.
	per []vlsi.Time
}

func newCycleRouter(t *tree.Tree, l int, cfg vlsi.Config, cycleEdges []int) *cycleRouter {
	maxEdge := maxInt(cycleEdges)
	return &cycleRouter{
		t:   t,
		l:   l,
		w:   vlsi.Time(cfg.WordBits),
		sh:  cfg.WireTransit(maxEdge),
		hop: cfg.Model.FirstBit(maxEdge),
		per: make([]vlsi.Time, l*t.K()),
	}
}

// logicalK returns the number of logical leaves.
func (c *cycleRouter) logicalK() int { return c.l * c.t.K() }

// Broadcast floods one word to every logical leaf of this row: one
// physical broadcast to the cycle ports, then L−1 circulate steps
// spread the word around each cycle. On a cut physical tree only the
// reached cycles circulate; logical leaves of cut cycles report
// tree.Unreached.
func (c *cycleRouter) Broadcast(rel vlsi.Time) ([]vlsi.Time, vlsi.Time) {
	phys, d := c.t.Broadcast(rel)
	if cut := c.t.CutLeaves(); cut != nil {
		// d is already the max over reached ports (or Unreached).
		done := tree.Unreached
		if d != tree.Unreached {
			done = d + vlsi.Time(c.l-1)*c.sh
		}
		per := c.per
		for i := range per {
			if phys[i/c.l] == tree.Unreached {
				per[i] = tree.Unreached
			} else {
				per[i] = done
			}
		}
		return per, done
	}
	done := d + vlsi.Time(c.l-1)*c.sh
	per := c.per
	for i := range per {
		per[i] = done
	}
	return per, done
}

// Gather lifts one word from logical leaf j: j mod L cycle hops to
// the port BP, then the physical tree.
func (c *cycleRouter) Gather(j int, rel vlsi.Time) vlsi.Time {
	drag := rel + vlsi.Time(j%c.l)*c.hop
	return c.t.Gather(j/c.l, drag)
}

// Reduce combines all logical leaves: each cycle pre-reduces its L
// words locally (L−1 circulate-and-combine steps), then the physical
// tree combines the cycle results.
func (c *cycleRouter) Reduce(rels []vlsi.Time) vlsi.Time {
	if len(rels) != c.logicalK() {
		panic(fmt.Sprintf("otc: Reduce over %d logical leaves, want %d", len(rels), c.logicalK()))
	}
	return c.ReduceUniform(vlsi.MaxTimes(rels...))
}

// ReduceUniform is Reduce with one release time.
func (c *cycleRouter) ReduceUniform(rel vlsi.Time) vlsi.Time {
	local := rel + vlsi.Time(c.l-1)*(c.sh+1)
	return c.t.ReduceUniform(local)
}

// ExchangePairs exchanges logical leaves j and j+stride. For strides
// below L the pair lives in one cycle (a cut-through drag of the two
// words, all cycles in parallel); for larger strides each cycle pair
// exchanges this row's word through the physical tree.
func (c *cycleRouter) ExchangePairs(stride int, rel vlsi.Time) vlsi.Time {
	if !vlsi.IsPow2(stride) || stride >= c.logicalK() {
		panic(fmt.Sprintf("otc: ExchangePairs stride %d over %d logical leaves", stride, c.logicalK()))
	}
	if stride < c.l {
		return rel + vlsi.Time(2*stride)*c.hop + c.w
	}
	return c.t.ExchangePairs(stride/c.l, rel)
}

// Route moves one word between logical leaf positions src and dst
// (identity leaf naming — see Leaf).
func (c *cycleRouter) Route(src, dst int, rel vlsi.Time) vlsi.Time {
	if src/c.l == dst/c.l {
		d := src%c.l - dst%c.l
		if d < 0 {
			d = -d
		}
		return rel + vlsi.Time(d)*c.hop + c.w
	}
	drag := rel + vlsi.Time(src%c.l)*c.hop
	t := c.t.Route(c.t.Leaf(src/c.l), c.t.Leaf(dst/c.l), drag)
	return t + vlsi.Time(dst%c.l)*c.hop
}

// ApplyFaults projects a fault plan onto the shared physical tree.
// Sites name the physical group trees: logical rows g·L..g·L+L−1 all
// map to group tree g = index/L, so the projection is idempotent
// across a group's members.
func (c *cycleRouter) ApplyFaults(p *fault.Plan, row bool, index int, h *fault.Health) {
	c.t.ApplyFaults(p, row, index/c.l, h)
}

// CutLeaves expands the physical tree's cut ports to logical leaves:
// cutting cycle p's port cuts its L logical positions.
func (c *cycleRouter) CutLeaves() []int {
	pc := c.t.CutLeaves()
	if pc == nil {
		return nil
	}
	out := make([]int, 0, len(pc)*c.l)
	for _, p := range pc {
		for q := 0; q < c.l; q++ {
			out = append(out, p*c.l+q)
		}
	}
	return out
}

// Leaf names logical leaves by their position (identity), matching
// what Route expects.
func (c *cycleRouter) Leaf(j int) int {
	if j < 0 || j >= c.logicalK() {
		panic(fmt.Sprintf("otc: logical leaf %d out of range", j))
	}
	return j
}

// Reset clears the shared physical tree's occupancy state. (Resetting
// any router of a group resets the group.)
func (c *cycleRouter) Reset() { c.t.Reset() }

// NewEmulatedOTN builds a core.Machine with kLogical logical rows and
// columns whose communication runs over a (kLogical/l × kLogical/l)-
// OTC with cycles of length l — the Section VI construction. Both
// kLogical/l and l must be powers of two (the paper's l = log N is
// rounded to a power of two; a constant-factor cycle-length change
// moves only constant factors). The machine's Area is the OTC's
// Θ((K·l)²) — the log² N below the OTN that Tables I–III bank on.
func NewEmulatedOTN(kLogical, l int, cfg vlsi.Config) (*core.Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l < 1 || !vlsi.IsPow2(l) {
		return nil, fmt.Errorf("otc: cycle length %d must be a positive power of two", l)
	}
	if kLogical%l != 0 {
		return nil, fmt.Errorf("otc: logical side %d not divisible by cycle length %d", kLogical, l)
	}
	k := kLogical / l
	if !vlsi.IsPow2(k) {
		return nil, fmt.Errorf("otc: %d cycles per side is not a power of two", k)
	}
	geom, err := layout.MeasureOTC(k, l, cfg.WordBits)
	if err != nil {
		return nil, err
	}
	rows := make([]core.Router, kLogical)
	cols := make([]core.Router, kLogical)
	// One physical tree per group of l logical rows/columns; the
	// group members share it, so their concurrent operations pipeline
	// through its edges.
	for g := 0; g < k; g++ {
		rt, err := tree.New(geom.RowTree, cfg)
		if err != nil {
			return nil, err
		}
		ct, err := tree.New(geom.ColTree, cfg)
		if err != nil {
			return nil, err
		}
		for q := 0; q < l; q++ {
			rows[g*l+q] = newCycleRouter(rt, l, cfg, geom.CycleEdgeLen)
			cols[g*l+q] = newCycleRouter(ct, l, cfg, geom.CycleEdgeLen)
		}
	}
	return core.NewWithRouters(kLogical, cfg, geom.Area(), rows, cols)
}
