package tree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/vlsi"
)

// newPlanTree builds a K-leaf tree on a private plan cache so tests
// never observe plans published by other tests (or benchmarks) through
// the process-wide default cache.
func newPlanTree(tb testing.TB, k int, cache *PlanCache) *Tree {
	tb.Helper()
	w := vlsi.WordBitsFor(k * k)
	o, err := layout.MeasureOTN(k, w)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(o.RowTree, vlsi.Config{WordBits: w, Model: vlsi.LogDelay{}})
	if err != nil {
		tb.Fatal(err)
	}
	tr.cache = cache
	return tr
}

// planOpRec is one operation of a differential stream.
type planOpRec struct {
	kind int // 0 broadcast, 1 reduceU, 2 reduce, 3 route, 4 exchange, 5 gather
	a, b int
	rel  vlsi.Time
	rels []vlsi.Time
}

func randStream(rng *rand.Rand, k, n int) []planOpRec {
	ops := make([]planOpRec, n)
	for i := range ops {
		o := planOpRec{kind: rng.Intn(6), rel: vlsi.Time(rng.Intn(50))}
		switch o.kind {
		case 2:
			o.rels = make([]vlsi.Time, k)
			for j := range o.rels {
				o.rels[j] = vlsi.Time(rng.Intn(50))
			}
		case 3:
			o.a = 1 + rng.Intn(2*k-1)
			o.b = 1 + rng.Intn(2*k-1)
		case 4:
			o.a = 1 << rng.Intn(log2(k))
		case 5:
			o.a = rng.Intn(k)
		}
		ops[i] = o
	}
	return ops
}

func log2(k int) int {
	n := 0
	for 1<<n < k {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

// applyPlanOp runs one stream operation and folds every observable
// output — completion times and the full perLeaf vector —
// into a comparable signature.
func applyPlanOp(tr *Tree, o planOpRec) (sig uint64) {
	h := func(x uint64) { sig = mix64(sig ^ x) }
	switch o.kind {
	case 0:
		perLeaf, done := tr.Broadcast(o.rel)
		h(uint64(done))
		for _, p := range perLeaf {
			h(uint64(p))
		}
	case 1:
		h(uint64(tr.ReduceUniform(o.rel)))
	case 2:
		h(uint64(tr.Reduce(o.rels)))
	case 3:
		h(uint64(tr.Route(o.a, o.b, o.rel)))
	case 4:
		h(uint64(tr.ExchangePairs(o.a, o.rel)))
	case 5:
		h(uint64(tr.Gather(o.a, o.rel)))
	}
	return sig
}

// diffStates fails the test when the two routers' post-sync mutable
// states (occupancy horizons, ascent counter) differ.
func diffStates(t *testing.T, ctx string, a, b *Tree) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.ascents != sb.ascents {
		t.Fatalf("%s: ascents %d vs %d", ctx, sa.ascents, sb.ascents)
	}
	for v := range sa.upFree {
		if sa.upFree[v] != sb.upFree[v] || sa.downFree[v] != sb.downFree[v] {
			t.Fatalf("%s: occupancy differs at node %d: up %d/%d down %d/%d",
				ctx, v, sa.upFree[v], sb.upFree[v], sa.downFree[v], sb.downFree[v])
		}
	}
}

// TestPlanDifferentialHealthy replays one stream over many resets and
// checks the compiled tree against a pinned interpreter, output by
// output and state by state.
func TestPlanDifferentialHealthy(t *testing.T) {
	for _, k := range []int{4, 8, 64} {
		compiled := newPlanTree(t, k, NewPlanCache())
		interp := newPlanTree(t, k, nil)
		interp.SetCompile(false)
		rng := rand.New(rand.NewSource(int64(k)))
		ops := randStream(rng, k, 40)
		for round := 0; round < 5; round++ {
			compiled.Reset()
			interp.Reset()
			for i, o := range ops {
				if sc, si := applyPlanOp(compiled, o), applyPlanOp(interp, o); sc != si {
					t.Fatalf("k=%d round %d op %d (%+v): compiled %x interp %x", k, round, i, o, sc, si)
				}
			}
			if round >= 2 && !compiled.HasRoutePlan() {
				t.Fatalf("k=%d round %d: no plan adopted", k, round)
			}
		}
		diffStates(t, "healthy", compiled, interp)
		if got, want := len(compiled.plan.steps), len(ops); got != want {
			t.Fatalf("k=%d: plan has %d steps, want %d", k, got, want)
		}
	}
}

// TestPlanDifferentialDegraded is the same property under dead-edge /
// dead-IP fault views (rate zero): degraded traversals compile too.
func TestPlanDifferentialDegraded(t *testing.T) {
	k := 16
	mkView := func() *fault.TreeFaults {
		return fault.New(9).
			KillEdge(true, 0, 5).KillEdge(true, 0, 19).KillIP(true, 0, 6).
			ForTree(true, 0, k, nil)
	}
	compiled := newPlanTree(t, k, NewPlanCache())
	interp := newPlanTree(t, k, nil)
	interp.SetCompile(false)
	compiled.SetFaults(mkView())
	interp.SetFaults(mkView())
	rng := rand.New(rand.NewSource(77))
	ops := randStream(rng, k, 40)
	for round := 0; round < 5; round++ {
		compiled.Reset()
		interp.Reset()
		for i, o := range ops {
			if sc, si := applyPlanOp(compiled, o), applyPlanOp(interp, o); sc != si {
				t.Fatalf("round %d op %d (%+v): compiled %x interp %x", round, i, o, sc, si)
			}
		}
		if round >= 2 && !compiled.HasRoutePlan() {
			t.Fatalf("round %d: degraded stream did not compile", round)
		}
	}
	diffStates(t, "degraded", compiled, interp)
}

// TestPlanTransientNeverCompiles pins the policy that views with a
// transient-corruption rate are interpreted on every run — their retry
// loops consume the monotone ascent counter and write the health
// ledger, which no replay may shortcut — and that the compiled-capable
// tree still matches the pinned interpreter bit for bit, health
// counters included.
func TestPlanTransientNeverCompiles(t *testing.T) {
	k := 8
	h1, h2 := &fault.Health{}, &fault.Health{}
	mkView := func(h *fault.Health) *fault.TreeFaults {
		return fault.New(41).WithTransients(0.4).ForTree(true, 0, k, h)
	}
	compiled := newPlanTree(t, k, NewPlanCache())
	interp := newPlanTree(t, k, nil)
	interp.SetCompile(false)
	compiled.SetFaults(mkView(h1))
	interp.SetFaults(mkView(h2))
	rng := rand.New(rand.NewSource(5))
	ops := randStream(rng, k, 30)
	for round := 0; round < 4; round++ {
		compiled.Reset()
		interp.Reset()
		for i, o := range ops {
			if sc, si := applyPlanOp(compiled, o), applyPlanOp(interp, o); sc != si {
				t.Fatalf("round %d op %d: compiled %x interp %x", round, i, sc, si)
			}
		}
		if compiled.HasRoutePlan() {
			t.Fatalf("round %d: transient view compiled a plan", round)
		}
	}
	if h1.Transients == 0 {
		t.Fatal("transient schedule never fired; test is vacuous")
	}
	if h1.Transients != h2.Transients || h1.Retries != h2.Retries ||
		h1.RetryLatency != h2.RetryLatency {
		t.Fatalf("health ledgers diverged: %+v vs %+v", h1, h2)
	}
	diffStates(t, "transient", compiled, interp)
}

// TestPlanDifferentialFuzz is the randomized property test: random
// shapes x random streams x random fault views x random mid-sequence
// divergence, resets, fault swaps and snapshot/rollbacks — the
// compiled tree must match the pinned interpreter on every output and
// every synchronized state.
func TestPlanDifferentialFuzz(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := []int{4, 8, 16, 32}[rng.Intn(4)]
		compiled := newPlanTree(t, k, NewPlanCache())
		interp := newPlanTree(t, k, nil)
		interp.SetCompile(false)
		var snapC, snapI *State
		ops := randStream(rng, k, 1+rng.Intn(30))
		for round := 0; round < 12; round++ {
			switch rng.Intn(10) {
			case 0: // new stream: forces divergence or fresh recording
				ops = randStream(rng, k, 1+rng.Intn(30))
			case 1: // swap the fault view (evicts plans)
				fp := fault.New(uint64(rng.Int63()))
				for e := 0; e < rng.Intn(3); e++ {
					fp.KillEdge(true, 0, 2+rng.Intn(2*k-2))
				}
				if rng.Intn(3) == 0 {
					fp.WithTransients(rng.Float64() / 2)
				}
				h1, h2 := &fault.Health{}, &fault.Health{}
				compiled.SetFaults(fp.ForTree(true, 0, k, h1))
				interp.SetFaults(fp.ForTree(true, 0, k, h2))
			case 2: // clear faults
				compiled.SetFaults(nil)
				interp.SetFaults(nil)
			case 3: // checkpoint both
				snapC, snapI = compiled.Snapshot(), interp.Snapshot()
			case 4: // rollback both
				if snapC != nil {
					compiled.Restore(snapC)
					interp.Restore(snapI)
				}
			}
			compiled.Reset()
			interp.Reset()
			n := len(ops)
			if rng.Intn(4) == 0 { // truncated run: plan longer than stream
				n = rng.Intn(n + 1)
			}
			for i := 0; i < n; i++ {
				if sc, si := applyPlanOp(compiled, ops[i]), applyPlanOp(interp, ops[i]); sc != si {
					t.Fatalf("seed %d round %d op %d (%+v): compiled %x interp %x",
						seed, round, i, ops[i], sc, si)
				}
			}
			diffStates(t, "fuzz", compiled, interp)
		}
	}
}

// TestPlanInvalidateOnSetFaults pins the eviction rule: any fault-view
// change (injection, merge, clearing) drops the compiled plan, and the
// next run under the new view recompiles against it.
func TestPlanInvalidateOnSetFaults(t *testing.T) {
	k := 8
	tr := newPlanTree(t, k, NewPlanCache())
	warm := func() {
		for i := 0; i < 2; i++ {
			tr.Reset()
			tr.Broadcast(0)
			tr.ReduceUniform(3)
		}
	}
	warm()
	if !tr.HasRoutePlan() {
		t.Fatal("no plan after warm-up")
	}
	tr.SetFaults(fault.New(1).KillEdge(true, 0, 5).ForTree(true, 0, k, nil))
	if tr.HasRoutePlan() {
		t.Fatal("plan survived fault injection")
	}
	warm()
	if !tr.HasRoutePlan() {
		t.Fatal("no recompile under the new view")
	}
	tr.SetFaults(nil)
	if tr.HasRoutePlan() {
		t.Fatal("plan survived fault clearing")
	}
}

// TestPlanRestoreResumesOnlySamePlan pins the rollback rule: Restore
// resumes the replay cursor only when the tree still holds the exact
// plan captured by the Snapshot; a fault change in between (which
// evicts) drops the rollback to pure interpretation.
func TestPlanRestoreResumesOnlySamePlan(t *testing.T) {
	k := 8
	ref := newPlanTree(t, k, nil)
	ref.SetCompile(false)
	tr := newPlanTree(t, k, NewPlanCache())
	run := func(x *Tree) []vlsi.Time {
		var out []vlsi.Time
		_, d := x.Broadcast(0)
		out = append(out, d)
		out = append(out, x.ReduceUniform(d))
		out = append(out, x.ExchangePairs(1, d))
		return out
	}
	// Warm the plan over two full runs.
	for i := 0; i < 2; i++ {
		tr.Reset()
		run(tr)
	}
	if !tr.HasRoutePlan() {
		t.Fatal("no plan after warm-up")
	}

	// Same-plan rollback: cursor resumes, outputs still match the
	// interpreter's for the replayed suffix.
	tr.Reset()
	ref.Reset()
	_, d := tr.Broadcast(0)
	_, dr := ref.Broadcast(0)
	if d != dr {
		t.Fatalf("prefix diverged: %d vs %d", d, dr)
	}
	s := tr.Snapshot()
	sr := ref.Snapshot()
	tr.ReduceUniform(d)
	ref.ReduceUniform(dr)
	tr.Restore(s)
	ref.Restore(sr)
	if !tr.HasRoutePlan() {
		t.Fatal("same-plan rollback dropped the plan")
	}
	if got, want := tr.ReduceUniform(d), ref.ReduceUniform(dr); got != want {
		t.Fatalf("post-rollback replay %d, interpreter %d", got, want)
	}
	diffStates(t, "rollback", tr, ref)

	// Stale-plan rollback: an eviction between Snapshot and Restore
	// (here a fault merge) must prevent cursor resumption.
	tr.Reset()
	tr.Broadcast(0)
	s = tr.Snapshot()
	tr.SetFaults(fault.New(2).KillEdge(true, 0, 9).ForTree(true, 0, k, nil))
	tr.Restore(s)
	if tr.HasRoutePlan() {
		t.Fatal("rollback resumed a plan evicted by a fault merge")
	}
}

// TestPlanExhaustionExtends pins plan growth: a stream longer than the
// recorded plan re-records an extended plan covering the longer run.
func TestPlanExhaustionExtends(t *testing.T) {
	k := 8
	tr := newPlanTree(t, k, NewPlanCache())
	ref := newPlanTree(t, k, nil)
	ref.SetCompile(false)
	for i := 0; i < 2; i++ {
		tr.Reset()
		tr.Broadcast(0)
	}
	if got := len(tr.plan.steps); got != 1 {
		t.Fatalf("short plan has %d steps, want 1", got)
	}
	for i := 0; i < 2; i++ {
		tr.Reset()
		ref.Reset()
		_, d := tr.Broadcast(0)
		_, dr := ref.Broadcast(0)
		if d != dr {
			t.Fatalf("extend round %d: broadcast %d vs %d", i, d, dr)
		}
		if got, want := tr.ReduceUniform(d), ref.ReduceUniform(dr); got != want {
			t.Fatalf("extend round %d: reduce %d vs %d", i, got, want)
		}
	}
	diffStates(t, "extend", tr, ref) // Snapshot also freezes the extension
	if got := len(tr.plan.steps); got != 2 {
		t.Fatalf("extended plan has %d steps, want 2", got)
	}
}

// TestPlanAdoptionAcrossTrees pins sharing: a second tree of the same
// shape on the same cache adopts the published plan instead of
// recording its own, and replays it correctly from its first run.
func TestPlanAdoptionAcrossTrees(t *testing.T) {
	k := 16
	cache := NewPlanCache()
	a := newPlanTree(t, k, cache)
	for i := 0; i < 2; i++ {
		a.Reset()
		a.Broadcast(0)
		a.ExchangePairs(2, 7)
	}
	if cache.Size() == 0 {
		t.Fatal("warm-up published nothing")
	}
	b := newPlanTree(t, k, cache)
	ref := newPlanTree(t, k, nil)
	ref.SetCompile(false)
	b.Reset()
	ref.Reset()
	_, d1 := b.Broadcast(0)
	_, r1 := ref.Broadcast(0)
	d2 := b.ExchangePairs(2, 7)
	r2 := ref.ExchangePairs(2, 7)
	if d1 != r1 || d2 != r2 {
		t.Fatalf("adopted replay (%d,%d) != interpreter (%d,%d)", d1, d2, r1, r2)
	}
	if !b.HasRoutePlan() {
		t.Fatal("tree b did not adopt the published plan")
	}
	diffStates(t, "adopt", b, ref)
}

// TestPlanReplayAllocFree asserts the perf contract: steady-state
// replay — Reset included — performs zero heap allocations.
func TestPlanReplayAllocFree(t *testing.T) {
	k := 64
	tr := newPlanTree(t, k, NewPlanCache())
	rels := make([]vlsi.Time, k)
	round := func() {
		tr.Reset()
		_, d := tr.Broadcast(0)
		d = tr.ReduceUniform(d)
		d = tr.Route(tr.Leaf(3), tr.Leaf(11), d)
		d = tr.ExchangePairs(4, d)
		for j := range rels {
			rels[j] = d + vlsi.Time(j%5)
		}
		tr.Reduce(rels)
	}
	round()
	round() // freeze + first replay
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// TestPlanCacheSharedRace hammers one PlanCache from many goroutines,
// each with a private same-shape tree: publishes and adoptions
// interleave, and every goroutine must still observe interpreter
// outputs. Run with -race this pins the read-only-after-freeze
// discipline.
func TestPlanCacheSharedRace(t *testing.T) {
	k := 16
	cache := NewPlanCache()
	ref := newPlanTree(t, k, nil)
	ref.SetCompile(false)
	var want []vlsi.Time
	ref.Reset()
	pl, d := ref.Broadcast(0)
	_ = pl
	want = append(want, d)
	want = append(want, ref.ReduceUniform(d))
	want = append(want, ref.ExchangePairs(1, 3))

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := newPlanTree(t, k, cache)
			for round := 0; round < 50; round++ {
				tr.Reset()
				var got []vlsi.Time
				_, d := tr.Broadcast(0)
				got = append(got, d)
				got = append(got, tr.ReduceUniform(d))
				got = append(got, tr.ExchangePairs(1, 3))
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("round %d output %d: got %d want %d", round, i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
}

// TestPlanCacheEvictionBounded pins the cache cap: publishing more
// streams than planCacheCap slots never grows the map past the cap.
func TestPlanCacheEvictionBounded(t *testing.T) {
	k := 4
	cache := NewPlanCache()
	tr := newPlanTree(t, k, cache)
	for i := 0; i < planCacheCap+40; i++ {
		tr.Reset()
		tr.Broadcast(vlsi.Time(i)) // distinct first step -> distinct slot
		tr.Reset()                 // freeze + publish
	}
	if got := cache.Size(); got > planCacheCap {
		t.Fatalf("cache grew to %d entries, cap %d", got, planCacheCap)
	}
}
