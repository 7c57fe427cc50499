package core

import (
	"repro/internal/fault"
	"repro/internal/vlsi"
)

// This file implements degraded-mode execution: the machine keeps
// producing correct results when a fault plan cuts tree hardware, by
// exploiting the OTN's structural redundancy — every BP is a leaf of
// both a row tree and a column tree, so a word blocked in its own
// tree detours out through the orthogonal tree at its source
// position, across a live parallel (helper) tree, and back through
// the orthogonal tree at its destination. Each detour is three
// ordinary routed words claiming real edges, so degraded runs cost
// real bit-times and the slowdown is measured, not modeled.
//
// Every degraded branch is gated on m.faulty (set only by a non-empty
// InjectFaults), so a machine without a plan — or with an empty one —
// executes the exact healthy code path, bit-identical times included.

// InjectFaults attaches a fault plan to the machine: it validates the
// plan, projects it onto every row and column router, freezes the
// stuck BPs' registers, and starts the health ledger. An empty plan
// is a no-op by design. On an emulated OTC machine, plan sites name
// the physical group trees (index/L), so sites beyond the physical
// tree range are inert.
func (m *Machine) InjectFaults(p *fault.Plan) error {
	if p.Empty() {
		return nil
	}
	if err := p.Validate(m.K, m.K); err != nil {
		return err
	}
	// Reuse a ledger attached earlier (EnsureHealth): the supervisor
	// charges checkpoint overhead before the first fault materializes,
	// and those costs must survive the injection.
	h := m.health
	if h == nil {
		h = &fault.Health{}
	}
	h.DeadEdges = len(p.DeadEdges)
	h.DeadIPs = len(p.DeadIPs)
	h.StuckBPs = len(p.StuckBPs)
	m.plan, m.health, m.faulty = p, h, true
	for i := 0; i < m.K; i++ {
		m.rows[i].ApplyFaults(p, true, i, h)
		m.cols[i].ApplyFaults(p, false, i, h)
	}
	if len(p.StuckBPs) > 0 {
		m.stuck = make([]bool, m.K*m.K)
		for _, b := range p.StuckBPs {
			m.stuck[b.I*m.K+b.J] = true
		}
	}
	return nil
}

// MergeFaults folds additional faults into the machine's live plan
// mid-run: the union plan is validated, re-projected onto every
// router, and the stuck-BP set extended, all while the existing
// health ledger keeps accumulating. It marks the machine's fault
// history as dynamic (FaultsMutated), which the machine cache uses
// to drop the machine on Return. Re-projection zeroes each router's
// ascent counter (tree.SetFaults semantics); the recovery supervisor
// restores a checkpoint afterwards, which puts the counters back.
func (m *Machine) MergeFaults(p *fault.Plan) error {
	if p.Empty() {
		return nil
	}
	merged := p
	if m.faulty {
		merged = m.plan.Union(p)
	}
	if err := m.InjectFaults(merged); err != nil {
		return err
	}
	m.dynamic = true
	return nil
}

// FaultsMutated reports whether the fault plan changed mid-run
// (MergeFaults) — i.e. the machine's fault state is no longer the
// one injected at checkout time.
func (m *Machine) FaultsMutated() bool { return m.dynamic }

// EnsureHealth returns the machine's health ledger, attaching an
// empty one first if none exists. The recovery supervisor calls it
// so checkpoint overhead is charged from the first snapshot on, even
// before any fault has arrived.
func (m *Machine) EnsureHealth() *fault.Health {
	if m.health == nil {
		m.health = &fault.Health{}
	}
	return m.health
}

// Health returns the machine's fault health ledger, nil when no
// non-empty plan was injected.
func (m *Machine) Health() *fault.Health { return m.health }

// HealthReport renders the health ledger for human consumption.
func (m *Machine) HealthReport() string { return m.health.Report() }

// Faulty reports whether a non-empty fault plan is attached.
func (m *Machine) Faulty() bool { return m.faulty }

// siteOf names a vector's tree as a fault site (for error reporting).
func siteOf(vec Vector) fault.Site {
	return fault.Site{Row: vec.IsRow, Tree: vec.Index}
}

// isCut reports whether leaf j of router r is cut off from its root.
func isCut(r Router, j int) bool {
	for _, c := range r.CutLeaves() {
		if c == j {
			return true
		}
	}
	return false
}

// liveLeaves returns the positions of r's live leaves, ascending.
func (m *Machine) liveLeaves(r Router) []int {
	cut := r.CutLeaves()
	live := make([]int, 0, m.K-len(cut))
	ci := 0
	for j := 0; j < m.K; j++ {
		if ci < len(cut) && cut[ci] == j {
			ci++
			continue
		}
		live = append(live, j)
	}
	return live
}

// nearestLive returns the live leaf closest to j (ties to the lower
// index), or -1 when no leaf is live.
func nearestLive(live []int, j int) int {
	best, bd := -1, int(^uint(0)>>1)
	for _, s := range live {
		d := s - j
		if d < 0 {
			d = -d
		}
		if d < bd {
			best, bd = s, d
		}
	}
	return best
}

// ortho returns the router of the tree orthogonal to vec at position
// p (the column tree of position p when vec is a row, and vice
// versa).
func (m *Machine) ortho(vec Vector, p int) Router {
	if vec.IsRow {
		return m.cols[p]
	}
	return m.rows[p]
}

// parallel returns the router of the tree parallel to vec at index r.
func (m *Machine) parallel(vec Vector, r int) Router {
	if vec.IsRow {
		return m.rows[r]
	}
	return m.cols[r]
}

// reroute moves the word at position s of vec to position d without
// using vec's own (cut) tree: three hops — out through the orthogonal
// tree at s to a helper parallel tree r, across the helper from
// position s to d, and back through the orthogonal tree at d to this
// vector. Helper indices are scanned deterministically from
// vec.Index+1 upward (mod K); viability is decided from the cut sets
// alone — if both endpoints of a tree route are root-reachable, the
// whole src→LCA→dst path is live (its edges are subsets of the two
// root paths), so no probe ever claims an edge and then fails.
//
// On success the detour's duration is charged to the health ledger
// and the arrival time at position d of vec is returned; ok is false
// when no viable helper exists.
func (m *Machine) reroute(vec Vector, s, d int, rel vlsi.Time) (t vlsi.Time, ok bool) {
	i := vec.Index
	for off := 1; off <= m.K; off++ {
		r := (i + off) % m.K
		out, helper, in := m.ortho(vec, s), m.parallel(vec, r), m.ortho(vec, d)
		if isCut(out, i) || isCut(out, r) ||
			isCut(helper, s) || isCut(helper, d) ||
			isCut(in, r) || isCut(in, i) {
			continue
		}
		t1 := out.Route(out.Leaf(i), out.Leaf(r), rel)
		t2 := helper.Route(helper.Leaf(s), helper.Leaf(d), t1)
		t3 := in.Route(in.Leaf(r), in.Leaf(i), t2)
		m.health.Reroute(t3 - rel)
		return t3, true
	}
	return rel, false
}

// deliverCut completes a root-sourced broadcast on a cut tree: every
// selected cut leaf receives the word by reroute from the nearest
// live leaf (which got it from the flood at per[s]). It returns the
// updated completion time — still negative (tree.Unreached) only when
// the flood reached no leaf at all.
func (m *Machine) deliverCut(vec Vector, sel Sel, per []vlsi.Time, done vlsi.Time) vlsi.Time {
	r := m.Router(vec)
	cut := r.CutLeaves()
	if cut == nil {
		return done
	}
	live := m.liveLeaves(r)
	for _, j := range cut {
		if sel != nil && !sel(j) {
			continue
		}
		s := nearestLive(live, j)
		if s < 0 {
			m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: "ROOTTOLEAF", Leaf: j})
			continue
		}
		t3, ok := m.reroute(vec, s, j, per[s])
		if !ok {
			m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: "ROOTTOLEAF", Leaf: j})
			continue
		}
		if t3 > done {
			done = t3
		}
	}
	return done
}

// gatherFrom resolves the leaf and release time a LEAFTOROOT-class
// gather should use: the selected leaf itself when live, or the
// nearest live leaf after rerouting the word to it.
func (m *Machine) gatherFrom(vec Vector, op string, leaf int, rel vlsi.Time) (int, vlsi.Time, bool) {
	r := m.Router(vec)
	if !isCut(r, leaf) {
		return leaf, rel, true
	}
	s := nearestLive(m.liveLeaves(r), leaf)
	if s < 0 {
		m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: op, Leaf: leaf})
		return 0, rel, false
	}
	t1, ok := m.reroute(vec, leaf, s, rel)
	if !ok {
		m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: op, Leaf: leaf})
		return 0, rel, false
	}
	return s, t1, true
}

// reduceRels prepares per-leaf release times for a combining ascent
// on a cut tree: each cut leaf whose word actually contributes
// (per contributes) is rerouted to the nearest live leaf, which
// combines it locally and releases at the word's arrival. Leaves
// whose contribution is the combine identity need no word moved.
func (m *Machine) reduceRels(vec Vector, op string, contributes Sel, rel vlsi.Time) []vlsi.Time {
	r := m.Router(vec)
	rels := make([]vlsi.Time, m.K)
	for j := range rels {
		rels[j] = rel
	}
	live := m.liveLeaves(r)
	for _, j := range r.CutLeaves() {
		if contributes != nil && !contributes(j) {
			continue
		}
		s := nearestLive(live, j)
		if s < 0 {
			m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: op, Leaf: j})
			continue
		}
		t1, ok := m.reroute(vec, j, s, rel)
		if !ok {
			m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: op, Leaf: j})
			continue
		}
		if t1 > rels[s] {
			rels[s] = t1
		}
	}
	return rels
}

// reduceOn runs a combining ascent for op on vec, degraded when the
// tree is cut. contributes selects the leaves whose words are not the
// combine identity (nil: all).
func (m *Machine) reduceOn(vec Vector, op string, contributes Sel, rel vlsi.Time) vlsi.Time {
	r := m.Router(vec)
	if m.faulty && r.CutLeaves() != nil {
		done := r.Reduce(m.reduceRels(vec, op, contributes, rel))
		if done < rel {
			m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: op, Leaf: -1})
			return rel
		}
		return done
	}
	return r.ReduceUniform(rel)
}

// pairMove routes one word of an exchange/permute step from position
// a to position b of vec, rerouting when either endpoint is cut.
func (m *Machine) pairMove(vec Vector, op string, a, b int, rel vlsi.Time) vlsi.Time {
	r := m.Router(vec)
	if !isCut(r, a) && !isCut(r, b) {
		return r.Route(r.Leaf(a), r.Leaf(b), rel)
	}
	t, ok := m.reroute(vec, a, b, rel)
	if !ok {
		m.fail(&fault.UnreachableError{Site: siteOf(vec), Op: op, Leaf: a})
	}
	return t
}
