// Package tree implements the communication machinery of the
// orthogonal trees network: a complete binary tree of internal
// processors (IPs) over K leaf ports, with bit-serial, pipelined,
// contention-aware word routing under a pluggable wire-delay model.
//
// Every row and every column tree of the OTN (and of the OTC) is one
// of these. The model follows the paper's Section II-B:
//
//   - words are w = Θ(log N) bits and move bit-serially;
//   - an edge of measured length L delays the leading bit by the
//     delay model's FirstBit(L) (Θ(log L) under Thompson's model) and
//     then passes one bit per bit-time, so a whole word costs
//     FirstBit(L) + w − 1 once it owns the edge;
//   - an edge is a pipelined resource: after a word's head enters, the
//     edge is busy for w bit-times before the next word's head may
//     enter (this serialization is what produces the Θ(√N) bottleneck
//     of Section IV's bitonic sort without any special-casing);
//   - combining IPs (COUNT/SUM/MIN) add one bit-time of latency per
//     level, the cost of a bit-serial adder/comparator stage
//     (Section VII-D discusses the LSB-first/MSB-first bit orders
//     that make this possible).
//
// Node indexing is heap order: node 1 is the root, node v has
// children 2v and 2v+1, and leaf j is node K+j.
package tree

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/vlsi"
)

// Tree is a contention-aware router for one row or column tree.
type Tree struct {
	geom  *layout.TreeGeom
	cfg   vlsi.Config
	first []vlsi.Time // per-node first-bit latency of its parent edge
	// upFree[v] / downFree[v] is the earliest time the edge between v
	// and its parent can accept the head of a new word travelling
	// toward / away from the root.
	upFree, downFree []vlsi.Time
	// nodeLatency is the per-IP store-and-forward latency in
	// bit-times (1: each IP re-times the bit stream).
	nodeLatency vlsi.Time
	// scaled records Thompson's scaling technique (NewScaledBulk): the
	// flag is already folded into first[], it is kept explicitly so
	// machines can report which fused duration table matches them.
	scaled bool

	// Fault state (see fault.go). faults is nil on a healthy tree,
	// and every fault guard in the hot paths is nil-cheap, so the
	// healthy router runs the exact pre-fault code path.
	faults      *fault.TreeFaults
	unreachable []bool // node v has no live path to the root
	cutLeaves   []int  // leaf indices with unreachable[K+j], sorted
	ascents     uint64 // combining-ascent sequence number

	// Route-compilation state (see plan.go). shapeSig fingerprints
	// the immutable shape (K, word width, per-edge latencies) so
	// plans can be shared across same-shape trees; faultSig
	// fingerprints the attached view; transient marks a view that
	// draws transient corruptions, which never compiles.
	shapeSig   uint64
	faultSig   uint64
	transient  bool
	cache      *PlanCache
	compileOff bool
	plan       *RoutePlan
	// pos is the replay cursor; applied is the watermark up to which
	// the occupancy arrays have been materialized (replay never
	// touches them). occDirty marks arrays not yet zeroed for the
	// current run — a replayed Reset is O(1).
	pos, applied int
	occDirty     bool
	rec          *planRecorder
	adopt        bool // first op after Reset adopts or starts recording
	inOp         bool // inside an interpretation (suppress nesting)

	// scratch holds the per-operation work buffers, sized once in
	// build and reused on every call so the steady-state router
	// allocates nothing. A Tree is owned by the goroutine that owns
	// its machine, so the buffers need no locking. Slices handed back
	// to callers (Broadcast's
	// perLeaf) are valid only until the tree's next operation; every
	// caller in this repository consumes them before issuing one.
	scratch struct {
		head    []vlsi.Time // 2K: per-node head-arrival (broadcasts)
		perLeaf []vlsi.Time // K: Broadcast's per-leaf completions
		ready   []vlsi.Time // 2K: combining-ascent arrival times
		hasWord []bool      // 2K: reduceOnce live-word flags
		rels    []vlsi.Time // K: ReduceUniform's fan-out of one rel
		redo    []vlsi.Time // K: reduceFaulty's post-NACK releases
	}
}

// New builds a router over the given measured tree geometry.
func New(geom *layout.TreeGeom, cfg vlsi.Config) (*Tree, error) {
	return build(geom, cfg, false)
}

func build(geom *layout.TreeGeom, cfg vlsi.Config, scaled bool) (*Tree, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		geom:        geom,
		cfg:         cfg,
		first:       make([]vlsi.Time, 2*geom.K),
		upFree:      make([]vlsi.Time, 2*geom.K),
		downFree:    make([]vlsi.Time, 2*geom.K),
		nodeLatency: 1,
		scaled:      scaled,
	}
	for v := 2; v < 2*geom.K; v++ {
		if scaled {
			t.first[v] = 1
		} else {
			t.first[v] = cfg.Model.FirstBit(geom.EdgeLen[v])
		}
	}
	t.scratch.head = make([]vlsi.Time, 2*geom.K)
	t.scratch.perLeaf = make([]vlsi.Time, geom.K)
	t.scratch.ready = make([]vlsi.Time, 2*geom.K)
	t.scratch.hasWord = make([]bool, 2*geom.K)
	t.scratch.rels = make([]vlsi.Time, geom.K)
	t.scratch.redo = make([]vlsi.Time, geom.K)
	sig := mix64(uint64(geom.K)<<32 ^ uint64(cfg.WordBits))
	sig = mix64(sig ^ uint64(t.nodeLatency))
	for v := 2; v < 2*geom.K; v++ {
		sig = mix64(sig ^ uint64(t.first[v])*0x9E3779B97F4A7C15)
	}
	t.shapeSig = sig
	t.cache = defaultPlanCache
	t.adopt = true
	return t, nil
}

// K returns the number of leaves.
func (t *Tree) K() int { return t.geom.K }

// WordBits returns the configured word width.
func (t *Tree) WordBits() int { return t.cfg.WordBits }

// Leaf returns the node index of leaf j.
func (t *Tree) Leaf(j int) int {
	if j < 0 || j >= t.geom.K {
		panic(fmt.Sprintf("tree: leaf %d out of range [0,%d)", j, t.geom.K))
	}
	return t.geom.K + j
}

// Root is the node index of the root.
const Root = 1

// Reset clears all edge-occupancy state, as between independent
// experiments. (Pipelined algorithms deliberately do NOT reset
// between operations; the shared edge state is what models the
// pipeline.)
//
// Reset is also the plan boundary: an in-flight recording freezes
// into the tree's RoutePlan here, and a tree holding a plan re-arms
// replay in O(1) — the arrays are zeroed lazily, only if the coming
// run diverges from the plan (see plan.go).
func (t *Tree) Reset() {
	if t.rec != nil {
		t.freezePlan()
	}
	t.pos, t.applied = 0, 0
	if t.plan != nil {
		t.occDirty = true
		t.adopt = false
		return
	}
	t.zeroOcc()
	t.occDirty = false
	t.adopt = !t.compileOff && !t.transient
}

// claim reserves the directional edge between node v and its parent
// for one w-bit word whose head is available at time head. It returns
// the time the head emerges at the far end.
func (t *Tree) claim(v int, up bool, head vlsi.Time) vlsi.Time {
	free := &t.downFree[v]
	if up {
		free = &t.upFree[v]
	}
	start := vlsi.MaxTime(head, *free)
	*free = start + vlsi.Time(t.cfg.WordBits)
	return start + t.first[v]
}

// Route sends one w-bit word from node src to node dst (heap
// indices), released at time rel, travelling up to their lowest
// common ancestor and then down. It returns the completion time: the
// instant the word's last bit arrives at dst.
//
// LEAFTOROOT is Route(Leaf(j), Root), ROOTTOLEAF to a single
// destination is Route(Root, Leaf(j)); leaf-to-leaf pair exchanges
// (the COMPEX of Section IV) route through the LCA, letting disjoint
// subtrees work in parallel.
func (t *Tree) Route(src, dst int, rel vlsi.Time) vlsi.Time {
	t.checkNode(src)
	t.checkNode(dst)
	if t.planActive() {
		if st := t.planStep(opRoute, int32(src), int32(dst), rel, nil); st != nil {
			return st.done
		}
	}
	prev := t.inOp
	t.inOp = true
	done := t.claimRoute(src, dst, rel)
	t.inOp = prev
	if !prev && t.rec != nil {
		t.record(planStep{op: opRoute, a: int32(src), b: int32(dst), rel: rel, done: done})
	}
	return done
}

// claimRoute is claimPath without materialising the path: the up leg
// is claimed during the LCA walk itself (the walk visits its edges in
// traversal order already), and the down leg — which the walk visits
// bottom-up but which must be claimed top-down — is buffered on the
// stack. The claim order and head arithmetic are identical to
// pathVia + claimPath; this variant exists only to keep the hot
// routing path free of heap allocation.
func (t *Tree) claimRoute(src, dst int, rel vlsi.Time) vlsi.Time {
	// Node indices fit in int64, so a path leg never exceeds 64 hops.
	var down [64]int
	nd := 0
	head := rel
	firstUp := true
	a, b := src, dst
	for a != b {
		if a > b {
			if !firstUp {
				head += t.nodeLatency
			}
			firstUp = false
			head = t.claim(a, true, head)
			a /= 2
		} else {
			down[nd] = b
			nd++
			b /= 2
		}
	}
	for i := nd - 1; i >= 0; i-- {
		head += t.nodeLatency
		head = t.claim(down[i], false, head)
	}
	return head + vlsi.Time(t.cfg.WordBits-1)
}

func (t *Tree) checkNode(v int) {
	if v < 1 || v >= 2*t.geom.K {
		panic(fmt.Sprintf("tree: node %d out of range [1,%d)", v, 2*t.geom.K))
	}
}

// pathVia returns the edges (identified by their child node) on the
// up leg from src to LCA(src,dst) and the down leg from the LCA to
// dst, in traversal order.
func pathVia(src, dst int) (up, down []int) {
	a, b := src, dst
	for a != b {
		if a > b {
			up = append(up, a)
			a /= 2
		} else {
			down = append(down, b)
			b /= 2
		}
	}
	// The down leg was collected bottom-up; reverse it.
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return up, down
}

// Broadcast floods one w-bit word from the root to every leaf
// (ROOTTOLEAF with the "all" selector; leaves not selected simply
// ignore the data, as the paper's IPs "pick up data from the parent
// and pass it on to the sons"). rel is the time the word is ready at
// the root. It returns the per-leaf completion times and the maximum.
//
// The returned perLeaf slice is read-only for the caller: in
// interpreted runs it is the tree's reusable scratch buffer (valid
// until the next operation); in replayed runs it is the plan's frozen
// copy. Either way it must not be mutated or retained across an
// operation.
func (t *Tree) Broadcast(rel vlsi.Time) (perLeaf []vlsi.Time, done vlsi.Time) {
	if t.planActive() {
		if st := t.planStep(opBroadcast, 0, 0, rel, nil); st != nil {
			return st.perLeaf, st.done
		}
	}
	prev := t.inOp
	t.inOp = true
	perLeaf, done = t.broadcastInterp(rel)
	t.inOp = prev
	if !prev && t.rec != nil {
		t.record(planStep{op: opBroadcast, rel: rel, done: done,
			perLeaf: append([]vlsi.Time(nil), perLeaf...)})
	}
	return perLeaf, done
}

// broadcastInterp is the interpreted broadcast (healthy or degraded).
func (t *Tree) broadcastInterp(rel vlsi.Time) (perLeaf []vlsi.Time, done vlsi.Time) {
	if t.faults.Dead() {
		return t.broadcastFaulty(rel)
	}
	k := t.geom.K
	head := t.scratch.head
	head[Root] = rel
	for v := 1; v < k; v++ {
		for _, c := range [2]int{2 * v, 2*v + 1} {
			h := head[v]
			if v != Root {
				h += t.nodeLatency
			}
			head[c] = t.claim(c, false, h)
		}
	}
	perLeaf = t.scratch.perLeaf
	done = 0
	for j := 0; j < k; j++ {
		perLeaf[j] = head[k+j] + vlsi.Time(t.cfg.WordBits-1)
		if perLeaf[j] > done {
			done = perLeaf[j]
		}
	}
	return perLeaf, done
}

// Gather routes one word from a single leaf to the root. rel is the
// release time at the leaf; the return is the time the last bit
// reaches the root (LEAFTOROOT, Section II-B operation 2).
func (t *Tree) Gather(leaf int, rel vlsi.Time) vlsi.Time {
	return t.Route(t.Leaf(leaf), Root, rel)
}

// Reduce performs a combining ascent: every leaf releases a w-bit
// word at its time in rel (len K), adjacent words are combined by the
// IPs level by level with one bit-time of combining latency, and the
// combined word arrives at the root. This implements
// COUNT-LEAFTOROOT, SUM-LEAFTOROOT and MIN-LEAFTOROOT, whose
// bit-serial adders/comparators let the combine proceed in the bit
// pipeline (LSB-first for SUM, MSB-first for MIN — Section VII-D).
// It returns the time the combined word's last bit reaches the root.
func (t *Tree) Reduce(rel []vlsi.Time) vlsi.Time {
	k := t.geom.K
	if len(rel) != k {
		panic(fmt.Sprintf("tree: Reduce with %d release times, want %d", len(rel), k))
	}
	if t.planActive() {
		if st := t.planStep(opReduce, 0, 0, 0, rel); st != nil {
			return st.done
		}
	}
	prev := t.inOp
	t.inOp = true
	done := t.reduceInterp(rel)
	t.inOp = prev
	if !prev && t.rec != nil {
		t.record(planStep{op: opReduce, done: done,
			rels: append([]vlsi.Time(nil), rel...)})
	}
	return done
}

// reduceInterp is the interpreted combining ascent (healthy or, via
// the retry loop, degraded).
func (t *Tree) reduceInterp(rel []vlsi.Time) vlsi.Time {
	k := t.geom.K
	if t.faults != nil {
		return t.reduceFaulty(rel)
	}
	ready := t.scratch.ready
	copy(ready[k:], rel)
	for v := k - 1; v >= 1; v-- {
		a := t.claim(2*v, true, ready[2*v])
		b := t.claim(2*v+1, true, ready[2*v+1])
		ready[v] = vlsi.MaxTime(a, b) + t.nodeLatency
	}
	return ready[Root] + vlsi.Time(t.cfg.WordBits-1)
}

// ReduceUniform is Reduce with all leaves releasing at the same time.
// It records as its own O(1)-matchable step kind: the uniform release
// compresses the K-length vector to one scalar.
func (t *Tree) ReduceUniform(rel vlsi.Time) vlsi.Time {
	if t.planActive() {
		if st := t.planStep(opReduceU, 0, 0, rel, nil); st != nil {
			return st.done
		}
	}
	prev := t.inOp
	t.inOp = true
	done := t.reduceUniformInterp(rel)
	t.inOp = prev
	if !prev && t.rec != nil {
		t.record(planStep{op: opReduceU, rel: rel, done: done})
	}
	return done
}

func (t *Tree) reduceUniformInterp(rel vlsi.Time) vlsi.Time {
	rels := t.scratch.rels
	for i := range rels {
		rels[i] = rel
	}
	return t.reduceInterp(rels)
}

// ExchangePairs models the COMPEX step of Section IV: every leaf j
// with j & stride == 0 (within its 2·stride block) exchanges a word
// with leaf j+stride, both directions routed through their lowest
// common ancestor. stride must be a power of two below K. It returns
// the time by which every exchange has completed.
//
// Pairs in disjoint subtrees proceed in parallel; the `stride` words
// crossing each block's apex serialize on its edges, which is exactly
// the congestion that makes a full bitonic merge cost Θ(K) word-times
// and the paper's bitonic sort Θ(√N log N) overall.
func (t *Tree) ExchangePairs(stride int, rel vlsi.Time) vlsi.Time {
	if !vlsi.IsPow2(stride) || stride >= t.geom.K {
		panic(fmt.Sprintf("tree: ExchangePairs stride %d (K=%d)", stride, t.geom.K))
	}
	if t.planActive() {
		if st := t.planStep(opExchange, int32(stride), 0, rel, nil); st != nil {
			return st.done
		}
	}
	prev := t.inOp
	t.inOp = true
	done := t.exchangeInterp(stride, rel)
	t.inOp = prev
	if !prev && t.rec != nil {
		t.record(planStep{op: opExchange, a: int32(stride), rel: rel, done: done})
	}
	return done
}

// exchangeInterp claims the pairwise routes (claim order identical to
// per-pair Route calls; leaf node indices are valid by construction).
func (t *Tree) exchangeInterp(stride int, rel vlsi.Time) vlsi.Time {
	var done vlsi.Time
	for j := 0; j < t.geom.K; j++ {
		if j&stride != 0 {
			continue
		}
		a, b := t.Leaf(j), t.Leaf(j+stride)
		d1 := t.claimRoute(a, b, rel)
		d2 := t.claimRoute(b, a, rel)
		done = vlsi.MaxTimes(done, d1, d2)
	}
	return done
}

// Pipeline schedules n consecutive root-sourced broadcasts (the
// paper's "pipedo": a stream of words entering the tree at Θ(log N)
// intervals, as used by matrix multiplication in Section III-A and by
// every OTC operation in Section V-B). words[i] is the time word i is
// ready at the root; the return value is the completion time of each
// word at the leaves.
func (t *Tree) Pipeline(words []vlsi.Time) []vlsi.Time {
	out := make([]vlsi.Time, len(words))
	for i, rel := range words {
		_, out[i] = t.Broadcast(rel)
	}
	return out
}
