package core

import (
	"fmt"

	"repro/internal/vlsi"
)

// This file implements the communication operations of Section II-B.
// Every primitive takes the release time `rel` at which its inputs
// are ready and returns the completion time; the paper's `pardo` is
// expressed by issuing the same primitive on many vectors at the same
// release time and taking the max of the completions (see ParDo), and
// `pipedo` by issuing successive operations on the same trees at
// increasing release times — the routers' persistent edge-occupancy
// state makes the pipeline overlap real.
//
// Misuse (bad vector, bad selector arity, bad stride/permutation) and
// unrecoverable fault outcomes record a typed sticky error on the
// machine (see errors.go) and return rel unchanged; under an injected
// fault plan each primitive falls back to degraded-mode routing (see
// degraded.go) when its tree is cut.

// RootToLeaf broadcasts the contents of the data register at the root
// of the vector's tree to register dst of the BPs selected by sel
// (primitive 1 of Section II-B). A nil selector selects all BPs. The
// IPs "pick up data from the parent and pass it on to the sons", so
// the wave floods the whole tree regardless of the selector; the
// selector gates only which leaves latch the word. On a cut tree the
// flood skips dead subtrees and each selected cut leaf receives its
// word by a reroute through orthogonal trees.
func (m *Machine) RootToLeaf(vec Vector, sel Sel, dst Reg, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("ROOTTOLEAF", vec); err != nil {
		m.fail(err)
		return rel
	}
	val := *m.root(vec)
	if m.stuck == nil {
		b := m.bank(dst)
		base, step := m.vecSpan(vec)
		if sel == nil {
			for k := 0; k < m.K; k++ {
				b[base+k*step] = val
			}
		} else {
			for k := 0; k < m.K; k++ {
				if sel(k) {
					b[base+k*step] = val
				}
			}
		}
	} else {
		for k := 0; k < m.K; k++ {
			if sel == nil || sel(k) {
				m.setAt(dst, vec, k, val)
			}
		}
	}
	per, done := m.Router(vec).Broadcast(rel)
	if m.faulty {
		done = m.deliverCut(vec, sel, per, done)
		if done < rel {
			done = rel
		}
	}
	return m.trace("ROOTTOLEAF", vec, rel, done)
}

// LeafToRoot sends register src of the single BP selected by sel to
// the root's data register (primitive 2). Selecting zero or more than
// one BP records a *SelectorError — the paper requires "Selector
// specifies one BP in Vector". A cut source leaf reroutes its word to
// the nearest live leaf, which gathers on its behalf.
func (m *Machine) LeafToRoot(vec Vector, sel Sel, src Reg, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("LEAFTOROOT", vec); err != nil {
		m.fail(err)
		return rel
	}
	leaf, n := -1, 0
	for k := 0; k < m.K; k++ {
		if sel == nil || sel(k) {
			leaf = k
			n++
		}
	}
	if n != 1 {
		m.fail(&SelectorError{Op: "LEAFTOROOT", Vec: vec, Selected: n})
		return rel
	}
	*m.root(vec) = m.at(src, vec, leaf)
	grel := rel
	if m.faulty {
		var ok bool
		if leaf, grel, ok = m.gatherFrom(vec, "LEAFTOROOT", leaf, rel); !ok {
			return rel
		}
	}
	done := m.Router(vec).Gather(leaf, grel)
	return m.trace("LEAFTOROOT", vec, rel, done)
}

// CountLeafToRoot counts the BPs of the vector whose flag register
// holds 1 and leaves the count in the root's data register
// (primitive 3). Each IP adds the counts of its two sons in the bit
// pipeline; on a cut tree the flagged cut leaves' words are rerouted
// to live leaves before the ascent (zero contributions are the
// additive identity and need no word moved).
func (m *Machine) CountLeafToRoot(vec Vector, flag Reg, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("COUNT-LEAFTOROOT", vec); err != nil {
		m.fail(err)
		return rel
	}
	var n int64
	b := m.bank(flag)
	base, step := m.vecSpan(vec)
	for k := 0; k < m.K; k++ {
		if b[base+k*step] == 1 {
			n++
		}
	}
	*m.root(vec) = n
	// reduceOn consults the contribution selector only on a cut tree,
	// so the closure is built only then — the healthy hot path runs
	// allocation-free.
	var flagged Sel
	if m.faulty {
		flagged = func(k int) bool { return m.at(flag, vec, k) == 1 }
	}
	done := m.reduceOn(vec, "COUNT-LEAFTOROOT", flagged, rel)
	return m.trace("COUNT-LEAFTOROOT", vec, rel, done)
}

// SumLeafToRoot adds register src over the selected BPs and leaves
// the sum in the root's data register (primitive 4). Unselected BPs
// contribute the additive identity.
func (m *Machine) SumLeafToRoot(vec Vector, sel Sel, src Reg, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("SUM-LEAFTOROOT", vec); err != nil {
		m.fail(err)
		return rel
	}
	var s int64
	b := m.bank(src)
	base, step := m.vecSpan(vec)
	if sel == nil {
		for k := 0; k < m.K; k++ {
			s += b[base+k*step]
		}
	} else {
		for k := 0; k < m.K; k++ {
			if sel(k) {
				s += b[base+k*step]
			}
		}
	}
	*m.root(vec) = s
	done := m.reduceOn(vec, "SUM-LEAFTOROOT", sel, rel)
	return m.trace("SUM-LEAFTOROOT", vec, rel, done)
}

// MinLeafToRoot extracts the minimum of register src over the
// selected BPs, ignoring Null entries, and leaves it in the root's
// data register (the MIN ascent used throughout Section III's graph
// algorithms; the IPs compare MSB-first). If nothing is selected the
// root receives Null.
func (m *Machine) MinLeafToRoot(vec Vector, sel Sel, src Reg, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("MIN-LEAFTOROOT", vec); err != nil {
		m.fail(err)
		return rel
	}
	min := Null
	b := m.bank(src)
	base, step := m.vecSpan(vec)
	for k := 0; k < m.K; k++ {
		if sel == nil || sel(k) {
			v := b[base+k*step]
			if v == Null {
				continue
			}
			if min == Null || v < min {
				min = v
			}
		}
	}
	*m.root(vec) = min
	// Null entries are the MIN identity: no word needs rerouting.
	// reduceOn consults the selector only on a cut tree, so the
	// closure is built only in degraded mode.
	var contributes Sel
	if m.faulty {
		contributes = And(sel, func(k int) bool { return m.at(src, vec, k) != Null })
	}
	done := m.reduceOn(vec, "MIN-LEAFTOROOT", contributes, rel)
	return m.trace("MIN-LEAFTOROOT", vec, rel, done)
}

// LeafToLeaf is the composite operation 1 of Section II-B: LEAFTOROOT
// from the single source BP followed by ROOTTOLEAF to the selected
// destinations. It transfers srcReg of the source BP into dstReg of
// every destination BP.
func (m *Machine) LeafToLeaf(vec Vector, srcSel Sel, src Reg, dstSel Sel, dst Reg, rel vlsi.Time) vlsi.Time {
	t := m.LeafToRoot(vec, srcSel, src, rel)
	return m.RootToLeaf(vec, dstSel, dst, t)
}

// CountLeafToLeaf is composite operation 2: the flag count is
// computed at the root and broadcast into dst of the selected BPs.
func (m *Machine) CountLeafToLeaf(vec Vector, flag Reg, dstSel Sel, dst Reg, rel vlsi.Time) vlsi.Time {
	t := m.CountLeafToRoot(vec, flag, rel)
	return m.RootToLeaf(vec, dstSel, dst, t)
}

// CompareExchange is the COMPEX step of Section IV's bitonic
// algorithms: BPs at positions k and k+stride (k & stride == 0)
// exchange register reg through their lowest common ancestor; the
// pair is then ordered ascending where asc(k) is true, descending
// otherwise. The exchanged words cross shared tree edges, so the
// stride words through each block apex serialize — the congestion
// that yields the paper's Θ(√N log N) bitonic bound. Pairs split by a
// cut exchange their words through orthogonal trees instead.
func (m *Machine) CompareExchange(vec Vector, stride int, reg Reg, asc func(k int) bool, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("COMPEX", vec); err != nil {
		m.fail(err)
		return rel
	}
	if !vlsi.IsPow2(stride) || stride >= m.K {
		m.fail(&MisuseError{Op: "COMPEX", Reason: fmt.Sprintf("stride %d invalid for K=%d", stride, m.K)})
		return rel
	}
	rb := m.bank(reg)
	base, step := m.vecSpan(vec)
	for k := 0; k < m.K; k++ {
		if k&stride != 0 {
			continue
		}
		a, b := rb[base+k*step], rb[base+(k+stride)*step]
		up := asc == nil || asc(k)
		if (up && a > b) || (!up && a < b) {
			if m.stuck == nil {
				rb[base+k*step] = b
				rb[base+(k+stride)*step] = a
			} else {
				m.setAt(reg, vec, k, b)
				m.setAt(reg, vec, k+stride, a)
			}
		}
	}
	r := m.Router(vec)
	var done vlsi.Time
	if m.faulty && r.CutLeaves() != nil {
		done = rel
		for k := 0; k < m.K; k++ {
			if k&stride != 0 {
				continue
			}
			d1 := m.pairMove(vec, "COMPEX", k, k+stride, rel)
			d2 := m.pairMove(vec, "COMPEX", k+stride, k, rel)
			done = vlsi.MaxTimes(done, d1, d2)
		}
	} else {
		done = r.ExchangePairs(stride, rel)
	}
	// One word comparison at each BP after the words meet.
	done = m.Local(done, m.CostCompare())
	return m.trace("COMPEX", vec, rel, done)
}

// PermuteVector routes register src of every BP of the vector into
// register dst of BP perm[k] — k's word travels up to the lowest
// common ancestor of leaves k and perm[k] and back down, and words
// sharing edges serialize. This is the general data-rearrangement
// step; the integer multiplier's skew charges exactly these routes
// inline, because it splits each word between two registers. Its
// cost ranges from Θ(log² K) for local permutations to Θ(K log K)
// when many words cross the root.
// Words whose source or target leaf is cut travel through orthogonal
// trees.
func (m *Machine) PermuteVector(vec Vector, perm []int, src, dst Reg, rel vlsi.Time) vlsi.Time {
	if err := m.checkVec("PERMUTE", vec); err != nil {
		m.fail(err)
		return rel
	}
	if len(perm) != m.K {
		m.fail(&MisuseError{Op: "PERMUTE", Reason: fmt.Sprintf("permutation of %d on K=%d", len(perm), m.K)})
		return rel
	}
	seen := m.perm.seen
	for i := range seen {
		seen[i] = false
	}
	for _, p := range perm {
		if p < 0 || p >= m.K || seen[p] {
			m.fail(&MisuseError{Op: "PERMUTE", Reason: fmt.Sprintf("not a permutation (target %d)", p)})
			return rel
		}
		seen[p] = true
	}
	// Functional move (read all, then write all — the words are in
	// flight simultaneously).
	vals := m.perm.vals
	sb := m.bank(src)
	base, step := m.vecSpan(vec)
	for k := 0; k < m.K; k++ {
		vals[k] = sb[base+k*step]
	}
	if m.stuck == nil {
		db := m.bank(dst)
		for k := 0; k < m.K; k++ {
			db[base+perm[k]*step] = vals[k]
		}
	} else {
		for k := 0; k < m.K; k++ {
			m.setAt(dst, vec, perm[k], vals[k])
		}
	}
	router := m.Router(vec)
	degraded := m.faulty && router.CutLeaves() != nil
	done := rel
	for k := 0; k < m.K; k++ {
		if perm[k] == k {
			continue
		}
		var d vlsi.Time
		if degraded {
			d = m.pairMove(vec, "PERMUTE", k, perm[k], rel)
		} else {
			d = router.Route(router.Leaf(k), router.Leaf(perm[k]), rel)
		}
		if d > done {
			done = d
		}
	}
	return m.trace("PERMUTE", vec, rel, done)
}

// ParDo runs f on every row (or every column, per rows) released at
// rel and returns the latest completion — the paper's
// "for each i pardo" construct. The parallelism is simulated: every
// body sees release time rel and the completions are max-reduced, so
// the bodies run one after another on the caller's goroutine while
// the returned completion is the time all K trees finish at once.
func (m *Machine) ParDo(rows bool, rel vlsi.Time, f func(vec Vector, rel vlsi.Time) vlsi.Time) vlsi.Time {
	done := rel
	for i := 0; i < m.K; i++ {
		vec := Col(i)
		if rows {
			vec = Row(i)
		}
		if t := f(vec, rel); t > done {
			done = t
		}
	}
	return done
}
