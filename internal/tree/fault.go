package tree

import (
	"repro/internal/fault"
	"repro/internal/vlsi"
)

// This file is the router half of the fault layer: a Tree can be
// given a fault.TreeFaults view, after which
//
//   - dead edges and dead IPs cut their subtree off from the root:
//     Broadcast skips cut subtrees (their leaves report Unreached),
//     and Reduce combines only the live leaves;
//   - transient corruption strikes combining ascents on the schedule
//     drawn by fault.TreeFaults.CorruptAscent. Every word already
//     carries a parity/checksum inside its w-bit frame (the frame is
//     sized by vlsi.Config.WordBits, so detection adds no bit-times);
//     a corrupted ascent is detected at the root, NACKed down the
//     tree, and re-ascended, with each retry claiming edges in the
//     ordinary way — so retries are re-charged in bit-times and
//     robustness shows up in the A·T² ledger.
//
// The routing methods (Route, Leaf, Reduce arity, ExchangePairs)
// panic on bad arguments: they sit below internal/core, which
// validates arguments and leaf liveness first, so a bad call there is
// a simulator bug, not user input.

// Unreached is the per-leaf completion sentinel for leaves cut off by
// dead hardware (no vlsi.Time of a delivered word is ever negative).
const Unreached vlsi.Time = -1

// SetFaults attaches (or, with nil, detaches) a fault view and
// precomputes root-reachability for every node. The reachability
// lemma this precomputation banks on: if leaves a and b are both
// root-reachable, the whole route a→LCA(a,b)→b is live, because its
// edges are subsets of the a→root and b→root edge sets. Callers can
// therefore decide route viability from CutLeaves alone, without
// probing (and without spuriously claiming edges).
func (t *Tree) SetFaults(f *fault.TreeFaults) {
	// Every view change — injection, mid-run merge, clearing — evicts
	// the compiled route plan: recorded claims are only valid under
	// the view they were recorded against. The in-flight replay is
	// synchronized under the outgoing view first, so the occupancy
	// arrays are exactly what the interpreter would hold.
	t.planInvalidate()
	t.faults = f
	t.faultSig = f.Fingerprint()
	t.transient = f.HasTransients()
	t.unreachable = nil
	t.cutLeaves = nil
	// The ascent sequence number restarts with the view: a recycled
	// tree must draw the same transient schedule a fresh one would.
	t.ascents = 0
	if !f.Dead() {
		return
	}
	k := t.geom.K
	t.unreachable = make([]bool, 2*k)
	t.unreachable[Root] = f.IPDead(Root)
	for v := 2; v < 2*k; v++ {
		t.unreachable[v] = t.unreachable[v/2] || f.EdgeDead(v)
	}
	for j := 0; j < k; j++ {
		if t.unreachable[k+j] {
			t.cutLeaves = append(t.cutLeaves, j)
		}
	}
}

// ApplyFaults implements the router-side fault hookup used by
// internal/core: project the plan onto this tree — identified by its
// row/column axis and index — and attach the view.
func (t *Tree) ApplyFaults(p *fault.Plan, row bool, index int, h *fault.Health) {
	t.SetFaults(p.ForTree(row, index, t.geom.K, h))
}

// CutLeaves returns the leaf indices cut off from the root by the
// current fault view, in increasing order; nil when the tree is
// healthy. The returned slice is shared — callers must not mutate it.
func (t *Tree) CutLeaves() []int { return t.cutLeaves }

// broadcastFaulty is Broadcast over a tree with dead hardware: the
// flood claims only live edges, and cut leaves report Unreached.
// done is the completion over the reached leaves, or Unreached when
// the flood reaches none (root IP dead).
func (t *Tree) broadcastFaulty(rel vlsi.Time) (perLeaf []vlsi.Time, done vlsi.Time) {
	k := t.geom.K
	// Scratch reuse is safe despite the skipped (unreachable) nodes:
	// a stale head[v] is only ever read for a reachable v, and every
	// reachable node's head is rewritten before it is read (parents
	// precede children in the ascending sweep).
	head := t.scratch.head
	head[Root] = rel
	for v := 1; v < k; v++ {
		if t.unreachable[v] {
			continue
		}
		for _, c := range []int{2 * v, 2*v + 1} {
			if t.unreachable[c] {
				continue
			}
			h := head[v]
			if v != Root {
				h += t.nodeLatency
			}
			head[c] = t.claim(c, false, h)
		}
	}
	perLeaf = t.scratch.perLeaf
	done = Unreached
	for j := 0; j < k; j++ {
		if t.unreachable[k+j] {
			perLeaf[j] = Unreached
			continue
		}
		perLeaf[j] = head[k+j] + vlsi.Time(t.cfg.WordBits-1)
		if perLeaf[j] > done {
			done = perLeaf[j]
		}
	}
	return perLeaf, done
}

// reduceOnce performs one combining ascent over the live leaves only:
// a cut leaf contributes no word, an IP with a single live input
// forwards it (still paying its combining bit-time), and the result
// reaches the root at the returned time — Unreached when no live
// leaf exists.
func (t *Tree) reduceOnce(rel []vlsi.Time) vlsi.Time {
	k := t.geom.K
	ready := t.scratch.ready
	hasWord := t.scratch.hasWord
	for j := 0; j < k; j++ {
		ready[k+j] = rel[j]
		hasWord[k+j] = t.unreachable == nil || !t.unreachable[k+j]
	}
	for v := k - 1; v >= 1; v-- {
		c1, c2 := 2*v, 2*v+1
		switch {
		case hasWord[c1] && hasWord[c2]:
			a := t.claim(c1, true, ready[c1])
			b := t.claim(c2, true, ready[c2])
			ready[v] = vlsi.MaxTime(a, b) + t.nodeLatency
			hasWord[v] = true
		case hasWord[c1]:
			ready[v] = t.claim(c1, true, ready[c1]) + t.nodeLatency
			hasWord[v] = true
		case hasWord[c2]:
			ready[v] = t.claim(c2, true, ready[c2]) + t.nodeLatency
			hasWord[v] = true
		default:
			// The buffers are reused across ascents, so a word-less
			// IP must be cleared explicitly — the old code relied on
			// make's zero fill here.
			hasWord[v] = false
		}
	}
	if !hasWord[Root] || (t.unreachable != nil && t.unreachable[Root]) {
		return Unreached
	}
	return ready[Root] + vlsi.Time(t.cfg.WordBits-1)
}

// reduceFaulty wraps reduceOnce with the transient-corruption retry
// loop. Each ascent consumes one sequence number of the tree's
// deterministic corruption schedule; a corrupted ascent is NACKed to
// the live leaves (an ordinary broadcast, claiming edges) and redone
// from each leaf's NACK arrival. The retry budget is the plan's
// MaxRetries; exhausting it records a StormError in the shared
// Health and returns the (corrupt) last ascent's time — the caller
// surfaces the failure through Health.Err.
func (t *Tree) reduceFaulty(rel []vlsi.Time) vlsi.Time {
	done := t.reduceOnce(rel)
	if done == Unreached {
		t.ascents++
		return done
	}
	retries := 0
	for t.faults.CorruptAscent(t.ascents) {
		t.ascents++
		t.faults.RecordTransient()
		if retries >= t.faults.MaxRetries() {
			t.faults.RecordFailure(&fault.StormError{Op: "Reduce", Retries: retries})
			return done
		}
		retries++
		nack, _ := t.Broadcast(done)
		// rel may alias scratch.rels (via ReduceUniform); redo is a
		// distinct buffer, and nack (scratch.perLeaf) is consumed in
		// this loop before the next Broadcast overwrites it.
		rel2 := t.scratch.redo
		for j := range rel2 {
			if nack[j] == Unreached {
				rel2[j] = rel[j]
			} else {
				rel2[j] = vlsi.MaxTime(rel[j], nack[j])
			}
		}
		redo := t.reduceOnce(rel2)
		t.faults.RecordRetry(redo - done)
		done = redo
	}
	t.ascents++
	return done
}
