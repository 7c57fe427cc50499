package packed

import (
	"fmt"

	"repro/internal/algorithms/graph"
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Incremental is the packed counterpart of graph.Incremental: it
// maintains component labels of a packed adjacency under streamed
// update batches, re-sweeping only the dirty words of the affected
// set S. The timing skeleton mirrors the scalar restricted round term
// for term — ccFixedA, the conditional hook broadcast, ccFixedB2C and
// ⌈log₂|S|⌉ pointer jumps per round, ⌈log₂|S|⌉+2 rounds per batch —
// so a healthy machine's scalar incremental run and this engine agree
// on every label and every completion bit-time, which is what the
// differential fuzz in this package pins.
//
// The host win is the dirty-word mask: S is kept as a packed bitmask
// plus the list of its non-zero word indices, and the candidate scan
// of each affected row touches only those words. A single-edge update
// in a small component costs a few words of host work instead of the
// full N×N/64-word sweep of a recompute.
type Incremental struct {
	e   *Engine
	adj *bits.Matrix
	d   []int64

	// In-flight batch state (between ApplyUpdates and Commit).
	work   []int64
	inS    []bool
	sv     []int
	smask  []uint64 // packed image of inS
	swords []int    // non-zero word indices of smask
	hook   []int64  // per-label scratch, reset only at S entries
	prev   []int64  // pointer-jump scratch, ditto

	roundsDone int
	maxRounds  int
	converged  bool
	pending    bool
	last       graph.BatchStats
}

// NewIncremental packs g, runs the initial full labeling on e and
// returns the engine ready for update batches plus the completion
// time of the initial labeling.
func NewIncremental(e *Engine, g *workload.Graph, rel vlsi.Time) (*Incremental, vlsi.Time) {
	if g.N != e.K {
		panic(fmt.Sprintf("packed: %d vertices on a (%d×%d) engine", g.N, e.K, e.K))
	}
	adj := PackGraph(g)
	d, t := e.ComponentsPacked(adj, rel)
	n := e.K
	return &Incremental{
		e: e, adj: adj, d: d,
		work:      append([]int64(nil), d...),
		inS:       make([]bool, n),
		smask:     make([]uint64, bits.Words(n)),
		hook:      make([]int64, n),
		prev:      make([]int64, n),
		converged: true,
	}, t
}

// ResumeIncremental rebuilds an engine around previously committed
// state without recomputing: g and labels come from a durable
// snapshot and are adopted as-is at zero simulated cost: the run that
// produced the snapshot already paid for them. The caller owns the
// claim that labels are the canonical labeling of g (server recovery
// asserts it against the union-find oracle).
func ResumeIncremental(e *Engine, g *workload.Graph, labels []int64) *Incremental {
	if g.N != e.K {
		panic(fmt.Sprintf("packed: %d vertices on a (%d×%d) engine", g.N, e.K, e.K))
	}
	n := e.K
	d := append([]int64(nil), labels...)
	return &Incremental{
		e: e, adj: PackGraph(g), d: d,
		work:      append([]int64(nil), d...),
		inS:       make([]bool, n),
		smask:     make([]uint64, bits.Words(n)),
		hook:      make([]int64, n),
		prev:      make([]int64, n),
		converged: true,
	}
}

// Labels returns a copy of the committed labels.
func (inc *Incremental) Labels() []int64 { return append([]int64(nil), inc.d...) }

// Stats returns the statistics of the last batch.
func (inc *Incremental) Stats() graph.BatchStats { return inc.last }

// ApplyUpdates folds a batch into the packed adjacency, derives the
// affected set S from the net changes and builds the dirty-word mask.
// Mirrors graph.(*Incremental).ApplyUpdates: same S, same stats, same
// one-word-step charge.
func (inc *Incremental) ApplyUpdates(batch []workload.EdgeUpdate, rel vlsi.Time) vlsi.Time {
	n := inc.e.K
	orig := make(map[int]bool, len(batch))
	for _, up := range batch {
		u, v := up.U, up.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := u*n + v
		if _, ok := orig[key]; !ok {
			orig[key] = inc.adj.Get(u, v)
		}
		inc.adj.SetTo(u, v, up.Add)
		inc.adj.SetTo(v, u, up.Add)
	}

	affected := make(map[int64]bool)
	changed := 0
	for key, was := range orig {
		u, v := key/n, key%n
		now := inc.adj.Get(u, v)
		if now == was {
			continue
		}
		changed++
		if !now || inc.d[u] != inc.d[v] {
			affected[inc.d[u]] = true
			affected[inc.d[v]] = true
		}
	}

	inc.sv = inc.sv[:0]
	for i := range inc.smask {
		inc.smask[i] = 0
	}
	for v := 0; v < n; v++ {
		in := affected[inc.d[v]]
		inc.inS[v] = in
		if in {
			inc.sv = append(inc.sv, v)
			inc.work[v] = int64(v)
			inc.smask[v/bits.WordBits] |= 1 << (v % bits.WordBits)
		} else {
			inc.work[v] = inc.d[v]
		}
	}
	inc.swords = inc.swords[:0]
	for i, w := range inc.smask {
		if w != 0 {
			inc.swords = append(inc.swords, i)
		}
	}
	inc.roundsDone = 0
	inc.maxRounds = 0
	if len(inc.sv) > 0 {
		inc.maxRounds = vlsi.Log2Ceil(len(inc.sv)) + 2
	}
	inc.converged = len(inc.sv) == 0
	inc.pending = true
	inc.last = graph.BatchStats{Updates: len(batch), Changed: changed, Affected: len(inc.sv)}
	return rel + vlsi.Time(inc.e.Cfg.WordBits)
}

// SkipRound reports whether round index i of the pending batch has
// nothing to do.
func (inc *Incremental) SkipRound(i int) bool {
	return inc.converged || i >= inc.maxRounds
}

// RoundStep runs one restricted round over the dirty words.
func (inc *Incremental) RoundStep(rel vlsi.Time) vlsi.Time {
	if inc.converged || inc.roundsDone >= inc.maxRounds {
		return rel
	}
	t, changed := inc.restrictedRound(rel)
	inc.roundsDone++
	if !changed {
		inc.converged = true
	}
	return t
}

// Commit folds the working labels of S into the committed labels and
// returns a copy of the result.
func (inc *Incremental) Commit() []int64 {
	if inc.pending {
		for _, v := range inc.sv {
			inc.d[v] = inc.work[v]
		}
		inc.last.Rounds = inc.roundsDone
		inc.pending = false
	}
	return append([]int64(nil), inc.d...)
}

// ApplyBatch applies one update batch to completion and returns the
// new labels and the completion time.
func (inc *Incremental) ApplyBatch(batch []workload.EdgeUpdate, rel vlsi.Time) ([]int64, vlsi.Time) {
	t := inc.ApplyUpdates(batch, rel)
	for i := 0; !inc.SkipRound(i); i++ {
		t = inc.RoundStep(t)
	}
	return inc.Commit(), t
}

// restrictedRound replays the scalar restricted round over packed
// words: the fixed broadcast/reduce terms are charged whole (the
// scalar round issues them on the selected trees at identical
// duration) while the data step sweeps only dirty words.
func (inc *Incremental) restrictedRound(rel vlsi.Time) (vlsi.Time, bool) {
	e := inc.e
	work, sv := inc.work, inc.sv

	// (a1..a4) broadcasts + compare + row MIN, restricted candidate
	// scan over the dirty words of each affected row.
	t := rel + e.ccFixedA
	cand := make([]int64, len(sv))
	anyHook := false
	for i, v := range sv {
		c := core.Null
		dv := work[v]
		bits.ForEachMasked(inc.adj.Row(v), inc.smask, inc.swords, func(u int) {
			if du := work[u]; du != dv && (c == core.Null || du < c) {
				c = du
			}
		})
		cand[i] = c
		if c != core.Null {
			anyHook = true
		}
	}

	// (b1) the selective stage broadcast charges only when some
	// affected row actually floods.
	if anyHook {
		t += e.fRow.Broadcast
	}
	// (b2) MIN per affected column + (c) the resolution broadcast.
	t += e.ccFixedB2C
	for _, s := range sv {
		inc.hook[s] = core.Null
	}
	for i, v := range sv {
		if cand[i] == core.Null {
			continue
		}
		s := work[v]
		if inc.hook[s] == core.Null || cand[i] < inc.hook[s] {
			inc.hook[s] = cand[i]
		}
	}
	changed := false
	for _, s := range sv {
		if work[s] != int64(s) {
			continue
		}
		ee := inc.hook[s]
		if ee == core.Null {
			continue
		}
		if inc.hook[ee] == int64(s) && int64(s) < ee {
			continue
		}
		work[s] = ee
		changed = true
	}

	// (d) pointer jumping bounded by the hooking forest on S.
	for j := 0; j < vlsi.Log2Ceil(len(sv)); j++ {
		for _, v := range sv {
			inc.prev[v] = work[v]
		}
		t += e.fCol.Broadcast
		var maxG vlsi.Time
		for _, v := range sv {
			if g := e.fRow.Gather[inc.prev[v]]; g > maxG {
				maxG = g
			}
			work[v] = inc.prev[inc.prev[v]]
		}
		t += maxG
	}
	return t, changed
}
