package tree

import (
	"sync"

	"repro/internal/vlsi"
)

// This file implements compiled routing schedules: plan-once /
// replay-many tree traversal with sparse tick advancement.
//
// The paper's primitives have data-independent traffic: for a fixed
// tree shape, operation kind, direction and fault view, the set of
// (edge, tick) occupancies a traversal claims is identical on every
// invocation. The interpreter in tree.go nevertheless re-derives it
// edge by edge each time. The compiler here records, the first time a
// given operation stream runs after a Reset, each operation's
// arguments and outputs — the per-tick edge/latch program reduced to
// its observable effects — into a RoutePlan. Subsequent runs replay
// the plan: each operation is matched against the recorded step in
// O(1) (O(K) for vector-release reduces) and its outputs are returned
// without touching the occupancy arrays at all. Ticks where no edge
// fires are never visited — the completion times were charged in
// closed form when the plan was recorded — which is the sparse tick
// advancement: a replayed Reset is O(1) and a replayed traversal does
// no per-bit stepping.
//
// Why simulated quantities cannot change: a plan step is only
// replayed when the incoming operation and every argument match the
// recorded step exactly, starting from the same post-Reset (all-zero)
// occupancy state. The interpreter is deterministic — identical
// arguments over identical occupancy evolve identical occupancy and
// produce identical outputs — so the recorded outputs ARE the outputs
// the interpreter would produce, bit for bit. The first operation
// that fails to match (a data-dependent divergence, a stream longer
// or shorter than recorded) falls back: the router re-establishes the
// interpreter's occupancy state (zero arrays, then re-interpret the
// matched prefix — or, when the whole plan matched, one O(K) copy of
// the recorded end-state) and interprets from there. Replay is
// therefore an memoization cache with verify-on-use, never an oracle.
//
// Fault interplay: plans are keyed by the fault view's fingerprint
// and evicted on every SetFaults (injection, merge, clearing — so
// recycled machines whose fault plan mutated recompile from scratch).
// Views with a transient-corruption rate never compile at all: their
// retry loops consume ascent sequence numbers and write the health
// ledger, so replaying them would need ledger/ascent bookkeeping for
// a path that, by construction, cannot repeat across runs (the ascent
// counter is monotone). Dead-hardware views (edges/IPs cut, rate
// zero) compile and replay like healthy trees: their degraded
// traversals are just as data-independent and touch no ledger.
//
// Sharing: frozen plans are immutable and published to a PlanCache
// keyed by (shape fingerprint, fault fingerprint, first-step
// signature). Any tree of the same shape — including trees owned by
// other machines or replayed on other goroutines — may adopt a
// published plan; verify-on-use makes adopting a stale or wrong
// candidate safe. The cache is mutex-guarded and plans are read-only
// after freeze, so sharing is race-free (pinned by the -race tests).

// planOp enumerates the recordable operations.
type planOp uint8

const (
	opBroadcast planOp = 1 + iota
	opReduce
	opReduceU
	opRoute
	opExchange
)

// planStep is one recorded operation: its arguments (the match key)
// and its outputs (what replay returns).
type planStep struct {
	op   planOp
	a, b int32     // Route src/dst, ExchangePairs stride
	rel  vlsi.Time // scalar release (all ops but vector Reduce)
	done vlsi.Time // recorded completion
	// rels is the frozen per-leaf release vector (opReduce only).
	rels []vlsi.Time
	// perLeaf is the frozen per-leaf completion vector (opBroadcast
	// only). Shared read-only.
	perLeaf []vlsi.Time
}

// planMaxSteps bounds a plan's memory on streams that never Reset:
// recording freezes at the cap and the tail stays interpreted.
const planMaxSteps = 4096

// RoutePlan is a frozen, immutable, shareable recording of one
// operation stream from a Reset (all-zero occupancy) onward.
type RoutePlan struct {
	shape, fault uint64
	startAscents uint64
	endAscents   uint64
	steps        []planStep
	// endUp/endDown are the occupancy arrays after the last recorded
	// step: a fully matched replay that must materialize (divergence
	// or snapshot) restores them with one O(K) copy instead of
	// re-interpreting the whole prefix.
	endUp, endDown []vlsi.Time
	// full marks a plan frozen at planMaxSteps: exhausting it does
	// not restart recording.
	full bool
}

// planRecorder accumulates steps between Reset and freeze.
type planRecorder struct {
	steps    []planStep
	startAsc uint64
}

// planKey addresses a cache slot: same shape, same fault view, same
// first operation. Keying on the first step keeps two different
// streams over one shape (say, a broadcast bench and a reduce bench)
// from thrashing a single slot.
type planKey struct{ shape, fault, first uint64 }

// PlanCache is a mutex-guarded store of frozen plans, shareable
// across trees, machines and goroutines.
type PlanCache struct {
	mu           sync.Mutex
	m            map[planKey]*RoutePlan
	hits, misses int64
}

// PlanCacheStats counts adoption traffic: a hit is a lookup that
// found a frozen plan to adopt (whether or not verify-on-use later
// diverged), a miss is a lookup that found nothing and left the tree
// recording its own plan.
type PlanCacheStats struct {
	Hits   int64
	Misses int64
}

// planCacheCap bounds the cache; on overflow an arbitrary entry is
// dropped (plans are re-recordable, eviction only costs a recompile).
const planCacheCap = 256

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache { return &PlanCache{m: make(map[planKey]*RoutePlan)} }

// defaultPlanCache is the process-wide cache every tree starts on.
var defaultPlanCache = NewPlanCache()

func (c *PlanCache) get(k planKey) *RoutePlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.m[k]
	if p != nil {
		c.hits++
	} else {
		c.misses++
	}
	return p
}

func (c *PlanCache) put(k planKey, p *RoutePlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= planCacheCap {
		if _, ok := c.m[k]; !ok {
			for victim := range c.m {
				delete(c.m, victim)
				break
			}
		}
	}
	c.m[k] = p
}

// Size returns the number of cached plans (test introspection).
func (c *PlanCache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns a snapshot of the adoption counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses}
}

// SharedPlanCache returns the process-wide cache every tree starts
// on — the one otserve's /metrics reports hit rates for.
func SharedPlanCache() *PlanCache { return defaultPlanCache }

// mix64 is the splitmix64 finalizer (cheap bijective hash).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// stepSig hashes one operation's match key for cache addressing.
func stepSig(op planOp, a, b int32, rel vlsi.Time, rels []vlsi.Time) uint64 {
	x := mix64(uint64(op) ^ 0x51AFD7ED558CCD25)
	x = mix64(x ^ uint64(uint32(a)))
	x = mix64(x ^ uint64(uint32(b)))
	x = mix64(x ^ uint64(rel))
	if rels != nil {
		x = mix64(x ^ uint64(len(rels)))
		for _, r := range rels {
			x = mix64(x ^ uint64(r))
		}
	}
	return x
}

// timesEqual compares a recorded release vector with an incoming one.
func timesEqual(a, b []vlsi.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- Tree

// SetCompile enables or disables route compilation. Disabling
// synchronizes any in-flight replay, drops the plan and recorder, and
// pins the tree to pure interpretation — the reference side of the
// compiled-vs-interpreted differential tests.
func (t *Tree) SetCompile(on bool) {
	if on {
		t.compileOff = false
		return
	}
	t.sync()
	t.plan = nil
	t.rec = nil
	t.adopt = false
	t.compileOff = true
}

// HasRoutePlan reports whether the tree currently holds a compiled
// plan (test introspection for the invalidation coverage).
func (t *Tree) HasRoutePlan() bool { return t.plan != nil }

// zeroOcc clears the occupancy arrays (the interpreter's Reset).
func (t *Tree) zeroOcc() {
	for v := range t.upFree {
		t.upFree[v] = 0
		t.downFree[v] = 0
	}
}

// planActive reports whether the hot-path wrappers must consult the
// compiler at all; false is the pure-interpreter fast path.
func (t *Tree) planActive() bool {
	return (t.plan != nil || t.rec != nil || t.adopt) && !t.inOp
}

// planStep matches the incoming operation against the current plan.
// A hit advances the cursor and returns the recorded step; a miss
// (divergence, exhaustion, or no plan) returns nil after leaving the
// occupancy arrays in the exact state the interpreter would have.
func (t *Tree) planStep(op planOp, a, b int32, rel vlsi.Time, rels []vlsi.Time) *planStep {
	if t.adopt {
		t.adoptOrRecord(op, a, b, rel, rels)
	}
	p := t.plan
	if p == nil || t.rec != nil {
		return nil
	}
	if t.pos >= len(p.steps) {
		t.planExhausted(p)
		return nil
	}
	st := &p.steps[t.pos]
	if st.op != op || st.a != a || st.b != b || st.rel != rel || !timesEqual(st.rels, rels) {
		// Mid-plan divergence: this stream genuinely differs from the
		// recorded one. Materialize and interpret; do not re-record (a
		// stream that diverges mid-prefix is unstable run to run).
		t.sync()
		t.plan = nil
		return nil
	}
	// Under an attached fault view every combining ascent — replayed
	// or not — consumes one sequence number of the monotone ascent
	// counter (transient views never compile, so the consumption is
	// always exactly one per reduce). Charging it at match time keeps
	// the counter bit-identical to the interpreter's even when a Reset
	// discards the replay cursor without ever synchronizing.
	if (op == opReduce || op == opReduceU) && t.faults != nil {
		t.ascents++
	}
	t.pos++
	return st
}

// planExhausted handles a stream longer than its plan: materialize
// the end state (O(K) copy when the whole plan matched) and, unless
// the plan was frozen at the cap, restart recording seeded with the
// recorded prefix so the next freeze covers the longer stream.
func (t *Tree) planExhausted(p *RoutePlan) {
	t.sync()
	t.plan = nil
	if !p.full && !t.compileOff {
		// startAsc is chosen so the extended plan's delta equals the
		// prefix's delta plus whatever the interpreted tail adds: the
		// counter is currently at (run start + prefix delta).
		t.rec = &planRecorder{
			steps:    append(make([]planStep, 0, len(p.steps)+16), p.steps...),
			startAsc: t.ascents - (p.endAscents - p.startAscents),
		}
	}
}

// adoptOrRecord resolves the pending first-operation decision: adopt
// a published plan whose shape, fault view and first step match, or
// start recording a fresh one.
func (t *Tree) adoptOrRecord(op planOp, a, b int32, rel vlsi.Time, rels []vlsi.Time) {
	t.adopt = false
	if t.compileOff || t.inOp {
		return
	}
	if t.cache != nil {
		if p := t.cache.get(planKey{t.shapeSig, t.faultSig, stepSig(op, a, b, rel, rels)}); p != nil {
			// Arrays were zeroed at Reset — exactly the state the
			// plan's step 0 was recorded from; full verification
			// happens step by step in planStep.
			t.plan = p
			t.pos, t.applied = 0, 0
			t.occDirty = false
			return
		}
	}
	t.rec = &planRecorder{startAsc: t.ascents}
}

// record appends one interpreted operation to the recorder; at the
// cap the plan freezes in place (arrays hold exactly the recorded end
// state) and the tail of the run stays interpreted.
func (t *Tree) record(st planStep) {
	t.rec.steps = append(t.rec.steps, st)
	if len(t.rec.steps) >= planMaxSteps {
		t.freezePlan()
		if t.plan != nil {
			t.pos = len(t.plan.steps)
			t.applied = t.pos
			t.occDirty = false
		}
	}
}

// freezePlan turns the recorder into an immutable plan, retains it as
// the tree's own, and publishes it to the cache. The occupancy arrays
// must hold the post-recording state (true at Reset, Snapshot and the
// cap — recording always runs interpreted over live arrays).
func (t *Tree) freezePlan() {
	rec := t.rec
	t.rec = nil
	if rec == nil || len(rec.steps) == 0 {
		return
	}
	p := &RoutePlan{
		shape:        t.shapeSig,
		fault:        t.faultSig,
		startAscents: rec.startAsc,
		endAscents:   t.ascents,
		steps:        rec.steps,
		endUp:        append([]vlsi.Time(nil), t.upFree...),
		endDown:      append([]vlsi.Time(nil), t.downFree...),
		full:         len(rec.steps) >= planMaxSteps,
	}
	t.plan = p
	if t.cache != nil && !t.compileOff {
		s := &p.steps[0]
		t.cache.put(planKey{p.shape, p.fault, stepSig(s.op, s.a, s.b, s.rel, s.rels)}, p)
	}
}

// sync brings the occupancy arrays (and the ascent counter) to the
// replay cursor: the state the interpreter would be in after the
// matched prefix. Fully matched plans restore the recorded end state
// in O(K); partial prefixes re-interpret the matched steps.
func (t *Tree) sync() {
	if t.occDirty {
		t.zeroOcc()
		t.occDirty = false
	}
	p := t.plan
	if p == nil || t.applied >= t.pos {
		t.applied = t.pos
		return
	}
	if t.applied == 0 && t.pos == len(p.steps) {
		copy(t.upFree, p.endUp)
		copy(t.downFree, p.endDown)
		t.applied = t.pos
		return
	}
	// Matched reduces already charged the ascent counter at match
	// time; re-interpreting them for their occupancy side effects must
	// not charge it twice.
	asc := t.ascents
	prev := t.inOp
	t.inOp = true
	for i := t.applied; i < t.pos; i++ {
		t.execStep(&p.steps[i])
	}
	t.inOp = prev
	t.ascents = asc
	t.applied = t.pos
}

// execStep re-interprets one recorded step for its occupancy side
// effects (outputs are discarded — they were already returned, and
// determinism guarantees they would be identical).
func (t *Tree) execStep(st *planStep) {
	switch st.op {
	case opBroadcast:
		t.broadcastInterp(st.rel)
	case opReduce:
		t.reduceInterp(st.rels)
	case opReduceU:
		t.reduceUniformInterp(st.rel)
	case opRoute:
		t.claimRoute(int(st.a), int(st.b), st.rel)
	case opExchange:
		t.exchangeInterp(int(st.a), st.rel)
	}
}

// planInvalidate drops all compilation state after synchronizing the
// arrays under the current (outgoing) fault view. SetFaults calls it
// for every view change — injection, merge, clearing — so a mutated
// fault plan always forces a recompile.
func (t *Tree) planInvalidate() {
	t.sync()
	t.plan = nil
	t.rec = nil
	t.adopt = false
	t.pos, t.applied = 0, 0
}
