package tree

import (
	"sync"

	"repro/internal/layout"
	"repro/internal/vlsi"
)

// This file implements fused whole-program duration tables — the
// timing substrate of the packed Boolean execution mode
// (internal/packed). Where plan.go compiles a *recorded* traversal
// for later replay on the same tree, a Fused table goes one step
// further: it tabulates, once per tree shape, the duration of each
// tree primitive issued on a quiescent tree, so an entire program's
// schedule can be replayed as pure arithmetic with no tree state at
// all.
//
// Soundness rests on the quiescence property of the paper's program
// style (every operation is issued at or after the completion time of
// the previous operation on that tree — ParDo joins with max):
//
//   - Broadcast: each downward edge (p,v) is claimed at the head's
//     arrival, and frees at start+W ≤ start+first[v]+W-1 <
//     done(perLeaf max), because first[v] ≥ 1. So after Broadcast
//     completes, every touched downFree is ≤ the completion time.
//   - ReduceUniform: the ascent claims each upward edge when the
//     combined word is ready; the last edge into the root frees at
//     start+W ≤ done. All touched upFree ≤ done.
//   - Gather: a single word ascends leaf→root; each edge frees W
//     after its start, and the word's head leaves the edge no earlier,
//     so every free ≤ done.
//
// Hence an operation issued at rel ≥ (previous completion) on the
// same tree finds every edge it claims free, and its duration is a
// pure function of (tree shape, op, argument) — exactly what the
// table stores. The differential fuzz in internal/packed pins this
// against the real routers at every overlapping N.
//
// Fused tables describe HEALTHY trees only. A fault view changes
// first-bit reachability and charges ascent numbers at traversal
// time, so faulty (and transient-bearing) machines always run the
// scalar interpreter/plan path — see DESIGN.md §13.

// Fused is the quiescent-duration table of one tree shape: issue any
// of the tabulated primitives at rel on an otherwise idle tree and it
// completes at rel + the stored duration.
type Fused struct {
	// K is the leaf count.
	K int
	// Broadcast is the root→all-leaves flood duration (the max over
	// PerLeaf arrivals).
	Broadcast vlsi.Time
	// PerLeaf is the per-leaf arrival offset of a Broadcast.
	PerLeaf []vlsi.Time
	// ReduceUniform is the combining-ascent duration for a single
	// uniform release time.
	ReduceUniform vlsi.Time
	// Gather[j] is the leaf j → root duration.
	Gather []vlsi.Time
}

// fusedCache memoizes tables by the probe tree's shapeSig, which
// fingerprints K, WordBits, node latency and every per-edge first-bit
// latency (hence the delay model, the measured geometry and the
// scaled-tree flag). Process-wide: every machine of the same shape
// shares one table.
var fusedCache sync.Map // uint64 (shapeSig) -> *Fused

// NewFused builds (or returns the cached) fused duration table for
// the tree shape given by geometry, configuration and the scaled
// flag. The probe builds one throwaway tree and issues each primitive
// once from a quiescent state; cost is O(K log K) on first use per
// shape.
func NewFused(geom *layout.TreeGeom, cfg vlsi.Config, scaled bool) (*Fused, error) {
	t, err := build(geom, cfg, scaled)
	if err != nil {
		return nil, err
	}
	if f, ok := fusedCache.Load(t.shapeSig); ok {
		return f.(*Fused), nil
	}
	// The probe must not publish plans recorded at rel=0 into the
	// shared cache — other machines' traversals start at arbitrary
	// rels and would merely miss, but keeping the probe inert is
	// cheaper than reasoning about it.
	t.SetCompile(false)
	f := &Fused{K: t.geom.K}
	perLeaf, done := t.Broadcast(0)
	f.Broadcast = done
	f.PerLeaf = append([]vlsi.Time(nil), perLeaf...)
	t.Reset()
	f.ReduceUniform = t.ReduceUniform(0)
	f.Gather = make([]vlsi.Time, t.geom.K)
	for j := 0; j < t.geom.K; j++ {
		t.Reset()
		f.Gather[j] = t.Gather(j, 0)
	}
	if prev, loaded := fusedCache.LoadOrStore(t.shapeSig, f); loaded {
		return prev.(*Fused), nil
	}
	return f, nil
}
