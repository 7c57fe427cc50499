// Package packed implements the bit-packed Boolean execution mode:
// the Boolean workload family (transitive closure, connected
// components — the paper's Table III problems) evaluated over uint64
// words, 64 base processors per word op, with simulated bit-times
// replayed from fused whole-program schedules instead of interpreted
// tree traversals.
//
// An Engine is machine-free: it carries the measured OTN geometry's
// area and two fused duration tables (internal/tree.Fused, one per
// congruent row/column tree shape) and nothing else. Where a
// core.Machine at K=1024 costs hundreds of megabytes of routers and
// register banks, the engine is a few kilobytes, which is what makes
// the paper's Table III curves computable at N=1024 in CI.
//
// The contract, pinned by the differential fuzz in this package: at
// every overlapping N, the packed engine returns exactly the labels,
// closure matrices and completion bit-times the scalar programs in
// internal/algorithms/graph return on a healthy machine. Faulty or
// traced runs stay on the scalar programs — fault views change
// first-bit reachability and charge ascent numbers at traversal time,
// and a tracer observes individual primitives, none of which the
// fused tables express (DESIGN.md §13). Callers pick the engine
// explicitly; nothing here inspects a machine.
package packed

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tree"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Engine evaluates the Boolean workload family over packed words for
// one OTN shape. Engines are immutable after construction and safe
// for concurrent use.
type Engine struct {
	// K is the base side (= vertex count of the graphs it accepts).
	K int
	// Cfg is the word width and delay model of the simulated machine.
	Cfg vlsi.Config
	// Scaled marks Thompson-scaled trees (core.NewScaled timing).
	Scaled bool

	area vlsi.Area
	fRow *tree.Fused
	fCol *tree.Fused

	// Fused whole-program schedule constants, recorded once at
	// construction and replayed additively per round — the packed
	// counterpart of plan.go's recorded traversals.
	ccFixedA     vlsi.Time // components a1..a4: col bcast + row bcast + compare + row reduce
	ccFixedB2C   vlsi.Time // components b2+c: col reduce + col bcast
	closureRound vlsi.Time // closure: one full Boolean squaring (n inner steps)
}

// build constructs the packed engine of core.New(k, cfg) (or
// core.NewScaled when scaled): same measured geometry, same area,
// fused tables probed from the same tree shapes.
func build(k int, cfg vlsi.Config, scaled bool) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom, err := layout.MeasureOTN(k, cfg.WordBits)
	if err != nil {
		return nil, err
	}
	e := &Engine{K: k, Cfg: cfg, Scaled: scaled, area: geom.Area()}
	if e.fRow, err = tree.NewFused(geom.RowTree, cfg, scaled); err != nil {
		return nil, err
	}
	if e.fCol, err = tree.NewFused(geom.ColTree, cfg, scaled); err != nil {
		return nil, err
	}
	w := vlsi.Time(cfg.WordBits)
	e.ccFixedA = e.fCol.Broadcast + e.fRow.Broadcast + w + e.fRow.ReduceUniform
	e.ccFixedB2C = e.fCol.ReduceUniform + e.fCol.Broadcast
	for l := 0; l < k; l++ {
		// One closure inner step: row LEAFTOLEAF (gather l + flood),
		// column LEAFTOLEAF, one local bit-op.
		e.closureRound += e.fRow.Gather[l] + e.fRow.Broadcast +
			e.fCol.Gather[l] + e.fCol.Broadcast + 1
	}
	return e, nil
}

// Area is the chip area of the engine's layout — identical to the
// corresponding core.Machine's Area().
func (e *Engine) Area() vlsi.Area { return e.area }

// PackGraph packs a workload graph's adjacency for the engine.
func PackGraph(g *workload.Graph) *bits.Matrix {
	m := bits.NewMatrix(g.N)
	for v := 0; v < g.N; v++ {
		for u, a := range g.Adj[v] {
			if a {
				m.Set(v, u)
			}
		}
	}
	return m
}

// Components labels the graph's vertices, mirroring
// graph.ConnectedComponents on a healthy machine: same labels, same
// completion bit-time.
func (e *Engine) Components(g *workload.Graph, rel vlsi.Time) ([]int64, vlsi.Time) {
	if g.N != e.K {
		panic(fmt.Sprintf("packed: %d vertices on a (%d×%d) engine", g.N, e.K, e.K))
	}
	return e.ComponentsPacked(PackGraph(g), rel)
}

// ComponentsPacked is Components over an already packed adjacency
// (workload.RNG.GnpBits draws one directly); adj is only read. It runs
// the rounds of graph.ConnectedComponents, each a hook-and-contract
// iteration whose primitives' durations come from the fused tables
// and whose data steps are the scalar steps evaluated on the host.
//
// The adjacency is only read once, into neighbour lists; every round
// then walks the edges instead of the n²/64 adjacency words. The
// rounds share three n-slices (labels, candidates, hooks); pointer
// jumping alternates between the labels and the candidate slice,
// which is dead by then. Once a jump moves no pointer, every later
// jump of the round reads the same prev and would charge the same
// column broadcast plus the same slowest gather, so the rest of the
// round's jumps are charged in one product (DESIGN.md §13).
func (e *Engine) ComponentsPacked(adj *bits.Matrix, rel vlsi.Time) ([]int64, vlsi.Time) {
	n := e.K
	if adj.N != n {
		panic(fmt.Sprintf("packed: %d-vertex adjacency on a (%d×%d) engine", adj.N, e.K, e.K))
	}
	off, nbr := neighbours(adj)
	labels := make([]int64, n)
	work := make([]int64, 2*n)
	d, cand, hook := labels, work[:n:n], work[n:]
	for v := range d {
		d[v] = int64(v)
	}
	t := rel
	jumps := vlsi.Log2Ceil(n)
	maxRounds := jumps + 2
	for round := 0; round < maxRounds; round++ {
		// (a1) D down every column, (a2) D along every row, (a3) local
		// candidate compare, (a4) MIN ascent per row.
		t += e.ccFixedA
		anyHook := false
		for v := range d {
			c := core.Null
			dv := d[v]
			for _, u := range nbr[off[v]:off[v+1]] {
				if du := d[u]; du != dv && (c == core.Null || du < c) {
					c = du
				}
			}
			cand[v] = c
			anyHook = anyHook || c != core.Null
		}

		// (b1) stage C(v) at column D(v): a selective row broadcast
		// that only charges when some row actually floods (ParDo is a
		// max, and deselected rows return their release time
		// unchanged).
		if anyHook {
			t += e.fRow.Broadcast
		}
		// (b2) MIN per column + (c) the hook-resolution broadcast.
		t += e.ccFixedB2C
		for s := range hook {
			hook[s] = core.Null
		}
		for v, c := range cand {
			if c == core.Null {
				continue
			}
			if s := d[v]; hook[s] == core.Null || c < hook[s] {
				hook[s] = c
			}
		}

		// (c) resolve hooks — the scalar logic verbatim. Root s reads
		// and writes only d[s], so d updates in place.
		changed := false
		for s := range d {
			if d[s] != int64(s) {
				continue
			}
			ee := hook[s]
			if ee == core.Null {
				continue
			}
			if hook[ee] == int64(s) && int64(s) < ee {
				continue
			}
			d[s] = ee
			changed = true
		}

		// (d) pointer jumping: per jump, a column broadcast plus the
		// slowest row gather from leaf prev[v].
		for j := 0; j < jumps; j++ {
			prev, next := d, cand
			var maxG vlsi.Time
			moved := false
			for v, pv := range prev {
				if g := e.fRow.Gather[pv]; g > maxG {
					maxG = g
				}
				next[v] = prev[pv]
				moved = moved || next[v] != pv
			}
			d, cand = next, prev
			if !moved {
				t += vlsi.Time(jumps-j) * (e.fCol.Broadcast + maxG)
				break
			}
			t += e.fCol.Broadcast + maxG
		}
		if !changed {
			break
		}
	}
	if &d[0] != &labels[0] {
		copy(labels, d)
	}
	return labels, t
}

// neighbours lists adj's set bits row by row: v's neighbours are
// nbr[off[v]:off[v+1]], ascending. One allocation holds both.
func neighbours(adj *bits.Matrix) (off, nbr []int32) {
	n := adj.N
	deg := 0
	for v := 0; v < n; v++ {
		for _, w := range adj.Row(v) {
			deg += mathbits.OnesCount64(w)
		}
	}
	buf := make([]int32, n+1+deg)
	off, nbr = buf[:n+1:n+1], buf[n+1:]
	k := int32(0)
	for v := 0; v < n; v++ {
		off[v] = k
		for wi, w := range adj.Row(v) {
			for ; w != 0; w &= w - 1 {
				nbr[k] = int32(wi*bits.WordBits + mathbits.TrailingZeros64(w))
				k++
			}
		}
	}
	off[n] = k
	return off, nbr
}

// Closure computes the reflexive-transitive closure, mirroring
// graph.ClosureOTN on a healthy machine: same matrix, same completion
// bit-time. The returned matrix is freshly allocated.
func (e *Engine) Closure(g *workload.Graph, rel vlsi.Time) (*bits.Matrix, vlsi.Time) {
	if g.N != e.K {
		panic(fmt.Sprintf("packed: %d vertices on a (%d×%d) engine", g.N, e.K, e.K))
	}
	n := e.K
	// R = adj ∨ I, squared until fixpoint.
	r := PackGraph(g)
	for v := 0; v < n; v++ {
		r.Set(v, v)
	}
	t := rel + 1 // reflexive diagonal: one local bit-op
	for round := 0; round < vlsi.Log2Ceil(n); round++ {
		// One Boolean squaring: acc(v) = OR of R rows picked out by
		// R(v)'s set bits. The diagonal makes acc ⊇ R, so acc is the
		// merged matrix directly and "changed" is plain inequality.
		acc := bits.NewMatrix(n)
		for v := 0; v < n; v++ {
			dst := acc.Row(v)
			bits.ForEach(r.Row(v), func(l int) {
				bits.Or(dst, r.Row(l))
			})
		}
		t += e.closureRound
		changed := !acc.Equal(r)
		r = acc
		t += 1 // merge ∨ + change detection: one local bit-op
		if !changed {
			break
		}
	}
	return r, t
}
