package graph

import (
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// BatchStats summarises the last update batch an Incremental absorbed.
type BatchStats struct {
	Updates  int // updates in the batch, duplicates and no-ops included
	Changed  int // edges whose presence actually changed net of the batch
	Affected int // vertices in the restricted recompute set S
	Rounds   int // restricted CONNECT rounds executed
}

// Incremental maintains component labels of a machine-resident graph
// under streamed edge update batches. Insertions that merge components
// and deletions both resolve through the same mechanism: a CONNECT
// recompute restricted to the set S of vertices whose pre-batch
// component was touched. Because CONNECT's labels are canonical (every
// component converges to its minimum vertex — the minimum root always
// wins the mutual-pair hook), relabeling only S reproduces, bit for
// bit, what a full recompute would assign: untouched components
// already hold their canonical labels, and the restricted run assigns
// canonical labels inside S.
//
// The cost model exploits the machine's selective primitives: a
// deselected tree returns the release time unchanged, so a round
// restricted to S charges exactly the broadcast/reduce terms of a full
// round but iterates only ⌈log₂|S|⌉ pointer jumps and ⌈log₂|S|⌉+2
// rounds — an update touching a small region costs O(polylog |S|)
// primitives instead of O(polylog N) full sweeps repeated over the
// whole graph.
//
// The batch lifecycle is step-decomposed for the recovery supervisor:
// ApplyUpdates, then RoundStep until SkipRound, then Commit.
// ApplyBatch bundles the three for plain runs.
type Incremental struct {
	m *core.Machine
	g *workload.Graph // private shadow of the machine-resident graph
	d []int64         // committed labels, always canonical

	// In-flight batch state (between ApplyUpdates and Commit).
	work       []int64 // working labels; entries outside S mirror d
	inS        []bool
	sv         []int // sorted vertices of S
	roundsDone int
	maxRounds  int
	converged  bool
	pending    bool
	last       BatchStats
}

// NewIncremental loads g into m, runs the initial full labeling and
// returns the engine ready for update batches, plus the completion
// time of the initial labeling.
func NewIncremental(m *core.Machine, g *workload.Graph, rel vlsi.Time) (*Incremental, vlsi.Time) {
	gc := workload.NewGraph(g.N)
	for i := range g.Adj {
		copy(gc.Adj[i], g.Adj[i])
	}
	LoadGraph(m, gc)
	d, t := ConnectedComponents(m, rel)
	return &Incremental{
		m: m, g: gc, d: d,
		work:      append([]int64(nil), d...),
		inS:       make([]bool, g.N),
		converged: true,
	}, t
}

// Machine returns the underlying machine.
func (inc *Incremental) Machine() *core.Machine { return inc.m }

// Labels returns a copy of the committed labels.
func (inc *Incremental) Labels() []int64 { return append([]int64(nil), inc.d...) }

// Graph returns the engine's current graph shadow (shared, read-only).
func (inc *Incremental) Graph() *workload.Graph { return inc.g }

// Stats returns the statistics of the last batch.
func (inc *Incremental) Stats() BatchStats { return inc.last }

// ApplyUpdates writes a batch into the adjacency register (both
// triangle halves), derives the affected set S from the net edge
// changes, and seeds the restricted recompute: every vertex of S
// restarts as its own supervertex. Batches that end
// up changing nothing (duplicate toggles, intra-component insertions)
// leave S empty and converge immediately. The charged time is the one
// local word-step of folding the updates into the base.
func (inc *Incremental) ApplyUpdates(batch []workload.EdgeUpdate, rel vlsi.Time) vlsi.Time {
	m, g, n := inc.m, inc.g, inc.g.N
	orig := make(map[int]bool, len(batch)) // u*n+v (u<v) → pre-batch presence
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
			orig[key] = g.Adj[u][v]
		}
		var a int64
		if up.Add {
			a = 1
		}
		g.Adj[u][v] = up.Add
		g.Adj[v][u] = up.Add
		m.Set(regAdj, u, v, a)
		m.Set(regAdj, v, u, a)
	}

	// Net changes against the pre-batch graph decide which component
	// labels must be recomputed: every net deletion taints both
	// endpoint components; a net insertion only matters when it
	// bridges two components (intra-component edges change no labels).
	affected := make(map[int64]bool)
	changed := 0
	for key, was := range orig {
		u, v := key/n, key%n
		now := g.Adj[u][v]
		if now == was {
			continue
		}
		changed++
		if !now || inc.d[u] != inc.d[v] {
			affected[inc.d[u]] = true
			affected[inc.d[v]] = true
		}
	}

	// S is the union of the affected components — edge-closed, because
	// components are maximal and any new cross edge put both endpoint
	// labels into the affected set.
	inc.sv = inc.sv[:0]
	for v := 0; v < n; v++ {
		in := affected[inc.d[v]]
		inc.inS[v] = in
		if in {
			inc.sv = append(inc.sv, v)
			inc.work[v] = int64(v)
		} else {
			inc.work[v] = inc.d[v]
		}
	}
	inc.roundsDone = 0
	inc.maxRounds = 0
	if len(inc.sv) > 0 {
		inc.maxRounds = vlsi.Log2Ceil(len(inc.sv)) + 2
	}
	inc.converged = len(inc.sv) == 0
	inc.pending = true
	inc.last = BatchStats{Updates: len(batch), Changed: changed, Affected: len(inc.sv)}
	return m.Local(rel, m.CostCompare())
}

// SkipRound reports whether round index i of the pending batch has
// nothing to do — the supervisor uses it as the per-step skip gate.
func (inc *Incremental) SkipRound(i int) bool {
	return inc.converged || i >= inc.maxRounds
}

// RoundStep runs one restricted CONNECT round over S. It is a no-op
// at zero cost once converged or past the round bound.
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
// returns a copy of the result. Idempotent between batches.
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

// ApplyBatch applies one update batch to completion: apply, restricted
// rounds until convergence, commit. It returns the new labels and the
// completion time.
func (inc *Incremental) ApplyBatch(batch []workload.EdgeUpdate, rel vlsi.Time) ([]int64, vlsi.Time) {
	t := inc.ApplyUpdates(batch, rel)
	for i := 0; !inc.SkipRound(i); i++ {
		t = inc.RoundStep(t)
	}
	return inc.Commit(), t
}

// restrictedRound is ccRound with every tree operation restricted to
// the rows/columns of S: deselected vectors return the release time
// unchanged, and selective ascents on healthy trees cost the same
// uniform reduce as full ones, so the time accounting is the full
// round skeleton with |S|-bounded pointer jumping. Stale register
// contents outside S are masked by the row selector in phase (b2);
// phase (a3) guards candidates to S columns because S is edge-closed
// only in the graph, not in the leftover register state.
func (inc *Incremental) restrictedRound(rel vlsi.Time) (vlsi.Time, bool) {
	m, n := inc.m, inc.g.N
	inS, sv, work := inc.inS, inc.sv, inc.work
	selS := func(k int) bool { return inS[k] }

	// (a1) working label down every S column.
	t := m.ParDo(false, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		m.SetColRoot(vec.Index, work[vec.Index])
		return m.RootToLeaf(vec, nil, regDcol, r)
	})
	// (a2) working label along every S row.
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		m.SetRowRoot(vec.Index, work[vec.Index])
		return m.RootToLeaf(vec, nil, regDrow, r)
	})
	// (a3) hooking candidates on the S rows.
	for _, v := range sv {
		for u := 0; u < n; u++ {
			c := core.Null
			if inS[u] && m.Get(regAdj, v, u) == 1 && m.Get(regDcol, v, u) != m.Get(regDrow, v, u) {
				c = m.Get(regDcol, v, u)
			}
			m.Set(regCand, v, u, c)
		}
	}
	t = m.Local(t, m.CostCompare())
	// (a4) C(v) = min candidate along each S row.
	cOf := make([]int64, n)
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		done := m.MinLeafToRoot(vec, nil, regCand, r)
		cOf[vec.Index] = m.RowRoot(vec.Index)
		return done
	})

	// (b1) stage C(v) at BP(v, D(v)) on the S rows.
	for _, v := range sv {
		for u := 0; u < n; u++ {
			m.Set(regT, v, u, core.Null)
		}
	}
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		v := vec.Index
		if !inS[v] || cOf[v] == core.Null {
			return r
		}
		m.SetRowRoot(v, cOf[v])
		return m.RootToLeaf(vec, core.One(int(work[v])), regT, r)
	})
	// (b2) T(s) = min over the S rows of column s; the selector masks
	// stale T cells left in non-S rows by earlier full runs.
	hook := make([]int64, n)
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		done := m.MinLeafToRoot(vec, selS, regT, r)
		hook[vec.Index] = m.ColRoot(vec.Index)
		return done
	})

	// (c) resolve hooks at the S roots. Writing work in place is safe:
	// iteration s only reads work[s] (no other iteration writes it)
	// and the immutable hook array.
	changed := false
	for _, s := range sv {
		if work[s] != int64(s) {
			continue
		}
		e := hook[s]
		if e == core.Null {
			continue
		}
		if hook[e] == int64(s) && int64(s) < e {
			continue
		}
		work[s] = e
		changed = true
	}
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		return m.RootToLeaf(vec, core.One(vec.Index%m.K), regT, r)
	})

	// (d) pointer jumping bounded by the hooking forest on S.
	for j := 0; j < vlsi.Log2Ceil(len(sv)); j++ {
		prev := append([]int64(nil), work...)
		t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			if !inS[vec.Index] {
				return r
			}
			m.SetColRoot(vec.Index, prev[vec.Index])
			return m.RootToLeaf(vec, nil, regDcol, r)
		})
		t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			v := vec.Index
			if !inS[v] {
				return r
			}
			done := m.LeafToRoot(vec, core.One(int(prev[v])), regDcol, r)
			work[v] = m.RowRoot(v)
			return done
		})
	}
	return t, changed
}

// incSnapshot captures everything a rollback needs to replay a batch
// deterministically: the machine registers are the supervisor's
// Snapshot concern; this covers the host-side graph shadow and label
// state.
type incSnapshot struct {
	adj        [][]bool
	d, work    []int64
	inS        []bool
	sv         []int
	roundsDone int
	maxRounds  int
	converged  bool
	pending    bool
	last       BatchStats
}

// HostSnapshot returns an opaque deep copy of the engine's host state.
func (inc *Incremental) HostSnapshot() any {
	s := &incSnapshot{
		adj:        make([][]bool, len(inc.g.Adj)),
		d:          append([]int64(nil), inc.d...),
		work:       append([]int64(nil), inc.work...),
		inS:        append([]bool(nil), inc.inS...),
		sv:         append([]int(nil), inc.sv...),
		roundsDone: inc.roundsDone,
		maxRounds:  inc.maxRounds,
		converged:  inc.converged,
		pending:    inc.pending,
		last:       inc.last,
	}
	for i, row := range inc.g.Adj {
		s.adj[i] = append([]bool(nil), row...)
	}
	return s
}

// HostRestore rewinds the engine to a HostSnapshot. The snapshot stays
// valid for further restores.
func (inc *Incremental) HostRestore(v any) {
	s := v.(*incSnapshot)
	for i, row := range s.adj {
		copy(inc.g.Adj[i], row)
	}
	copy(inc.d, s.d)
	copy(inc.work, s.work)
	copy(inc.inS, s.inS)
	inc.sv = append(inc.sv[:0], s.sv...)
	inc.roundsDone = s.roundsDone
	inc.maxRounds = s.maxRounds
	inc.converged = s.converged
	inc.pending = s.pending
	inc.last = s.last
}
