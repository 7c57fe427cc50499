package resilience_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func newMachine(t *testing.T, k int) *core.Machine {
	t.Helper()
	m, err := core.NewDefault(k, k*k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZeroEventBitIdentical pins the free-when-empty contract: the
// supervised run of SORT-OTN under an empty schedule matches the
// direct sorting.SortOTN call bit for bit — same output, same finish
// time — and engages none of the recovery machinery (no ledger is
// even attached).
func TestZeroEventBitIdentical(t *testing.T) {
	k := 8
	xs := workload.NewRNG(7).Perm(k)

	ref := newMachine(t, k)
	want, wantDone := sorting.SortOTN(ref, append([]int64(nil), xs...), 0)
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}

	m := newMachine(t, k)
	prog, out, err := resilience.SortProgram(m, xs)
	if err != nil {
		t.Fatal(err)
	}
	done, err := resilience.Run(m, fault.NewSchedule(1), prog, 0, resilience.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if done != wantDone {
		t.Fatalf("zero-event supervised finish %d, direct %d", done, wantDone)
	}
	if got := out(); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-event supervised output %v, direct %v", got, want)
	}
	if m.Health() != nil {
		t.Fatalf("zero-event run attached a health ledger: %+v", m.Health())
	}
	if m.FaultsMutated() {
		t.Fatal("zero-event run marked the fault plan as mutated")
	}
}

// TestZeroEventComponentsBitIdentical is the same contract for the
// iterative program: load + rounds + early exit must replay the exact
// monolithic loop.
func TestZeroEventComponentsBitIdentical(t *testing.T) {
	k := 8
	g := workload.NewRNG(11).ComponentsGraph(k, 3)

	ref := newMachine(t, k)
	graph.LoadGraph(ref, g)
	want, wantDone := graph.ConnectedComponents(ref, 0)
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}

	m := newMachine(t, k)
	prog, out, err := resilience.ComponentsProgram(m, g)
	if err != nil {
		t.Fatal(err)
	}
	done, err := resilience.Run(m, nil, prog, 0, resilience.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if done != wantDone {
		t.Fatalf("zero-event supervised finish %d, direct %d", done, wantDone)
	}
	if got := out(); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-event supervised labels %v, direct %v", got, want)
	}
}

// midRunSchedule builds a schedule of n dead-edge arrivals strictly
// inside the healthy run (horizon = healthy finish), so events strike
// while the computation is in flight.
func midRunSchedule(t *testing.T, k, n int, horizon vlsi.Time, seed uint64) *fault.Schedule {
	t.Helper()
	s := fault.RandomSchedule(k, n, horizon, seed)
	if err := s.Validate(k, k); err != nil {
		t.Fatal(err)
	}
	return s
}

type sortTrace struct {
	out    []int64
	done   vlsi.Time
	errTxt string
	health fault.Health
}

// runSupervisedSort executes one full supervised SORT-OTN and
// returns everything observable about the run.
func runSupervisedSort(t *testing.T, k, events int, seed uint64) sortTrace {
	return runSupervisedSortPrep(t, k, events, seed, nil)
}

// runSupervisedSortPrep is runSupervisedSort with a hook that mutates
// the machine before the supervised run (plan warming, compile mode).
func runSupervisedSortPrep(t *testing.T, k, events int, seed uint64, prep func(*core.Machine)) sortTrace {
	t.Helper()
	ref := newMachine(t, k)
	xs := workload.NewRNG(seed | 1).Perm(k)
	_, horizon := sorting.SortOTN(ref, append([]int64(nil), xs...), 0)

	m := newMachine(t, k)
	if prep != nil {
		prep(m)
	}
	prog, out, err := resilience.SortProgram(m, xs)
	if err != nil {
		t.Fatal(err)
	}
	sched := midRunSchedule(t, k, events, horizon, seed)
	done, rerr := resilience.Run(m, sched, prog, 0, resilience.Options{})
	tr := sortTrace{out: out(), done: done}
	if rerr != nil {
		tr.errTxt = rerr.Error()
	}
	if h := m.Health(); h != nil {
		tr.health = *h
		tr.health.CutFailures(0) // drop the error list; counters compare below
	}
	return tr
}

// TestMidRunSortRecovers drives SORT-OTN through a mid-run dead-edge
// schedule: the result must still be correct, and the ledger must
// itemize the arrivals, checkpoints and rollbacks that got it there.
func TestMidRunSortRecovers(t *testing.T) {
	k := 8
	seed := uint64(1983)
	tr := runSupervisedSort(t, k, 3, seed)
	if tr.errTxt != "" {
		t.Fatalf("supervised sort failed: %s", tr.errTxt)
	}
	want := workload.NewRNG(seed | 1).Perm(k)
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if !reflect.DeepEqual(tr.out, want) {
		t.Fatalf("supervised sort output %v, want %v", tr.out, want)
	}
	h := tr.health
	if h.Arrivals == 0 {
		t.Fatal("no arrivals recorded for a mid-run schedule")
	}
	if h.Checkpoints == 0 || h.CheckpointOverhead == 0 {
		t.Fatalf("checkpoints not itemized: %+v", h)
	}
	if h.Rollbacks > 0 && h.RollbackLatency == 0 {
		t.Fatalf("rollbacks recorded without added bit-times: %+v", h)
	}
	healthyDone := func() vlsi.Time {
		ref := newMachine(t, k)
		xs := workload.NewRNG(seed | 1).Perm(k)
		_, d := sorting.SortOTN(ref, xs, 0)
		return d
	}()
	if tr.done <= healthyDone {
		t.Fatalf("supervised finish %d not later than healthy %d despite recovery work", tr.done, healthyDone)
	}
}

// TestMidRunSortDeterministic replays the same seed twice and demands
// a bit-identical recovery trace: output, finish time, error text and
// every ledger counter.
func TestMidRunSortDeterministic(t *testing.T) {
	for _, events := range []int{1, 3, 5} {
		a := runSupervisedSort(t, 8, events, 42)
		b := runSupervisedSort(t, 8, events, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("events=%d: traces differ:\n%+v\n%+v", events, a, b)
		}
	}
}

// TestRecoveryNeverReplaysStalePlans pins the compiled-routing layer
// against the supervisor's worst case: a machine whose routers hold
// warm compiled schedules (recorded under the healthy fault view, and
// replaying when the fault arrives) must produce a recovery trace —
// output, finish time, every ledger counter — bit-identical to a cold
// machine's and to a compile-disabled machine's. A stale schedule
// surviving MergeFaults, or a checkpoint Restore resuming a replay
// cursor into a dropped plan, would shift the trace.
func TestRecoveryNeverReplaysStalePlans(t *testing.T) {
	k := 8
	for _, events := range []int{1, 3} {
		for _, seed := range []uint64{42, 1983} {
			cold := runSupervisedSortPrep(t, k, events, seed, nil)
			warm := runSupervisedSortPrep(t, k, events, seed, func(m *core.Machine) {
				// Record schedules for the exact op stream the
				// supervised run opens with, then freeze them.
				xs := workload.NewRNG(seed | 1).Perm(k)
				sorting.SortOTN(m, append([]int64(nil), xs...), 0)
				m.Reset()
				if m.RoutePlansCompiled() == 0 {
					t.Fatal("warming run compiled no route plans")
				}
			})
			interp := runSupervisedSortPrep(t, k, events, seed, func(m *core.Machine) {
				m.SetRouteCompile(false)
			})
			if !reflect.DeepEqual(warm, cold) {
				t.Fatalf("events=%d seed=%d: plan-warm trace differs from cold:\n%+v\n%+v",
					events, seed, warm, cold)
			}
			if !reflect.DeepEqual(warm, interp) {
				t.Fatalf("events=%d seed=%d: plan-warm trace differs from interpreted:\n%+v\n%+v",
					events, seed, warm, interp)
			}
		}
	}
}

// TestMidRunComponentsRecovers is the iterative-program analogue:
// labels must match the union-find reference partition after mid-run
// arrivals.
func TestMidRunComponentsRecovers(t *testing.T) {
	k := 8
	seed := uint64(5)
	g := workload.NewRNG(seed).ComponentsGraph(k, 3)

	ref := newMachine(t, k)
	graph.LoadGraph(ref, g)
	_, horizon := graph.ConnectedComponents(ref, 0)

	m := newMachine(t, k)
	prog, out, err := resilience.ComponentsProgram(m, g)
	if err != nil {
		t.Fatal(err)
	}
	sched := midRunSchedule(t, k, 2, horizon, seed)
	if _, err := resilience.Run(m, sched, prog, 0, resilience.Options{}); err != nil {
		t.Fatalf("supervised components failed: %v", err)
	}
	if !graph.SamePartition(out(), graph.RefComponents(g)) {
		t.Fatalf("supervised components labels %v disagree with reference", out())
	}
	if h := m.Health(); h == nil || h.Arrivals == 0 {
		t.Fatalf("mid-run schedule left no arrivals in the ledger: %+v", h)
	}
}

// TestDoubleCutGivesUp cuts one BP's leaf edge in both its row and
// its column tree mid-run. The redundancy argument cannot absorb
// that, so the supervisor must exhaust its bounded attempts and
// surface the existing sticky unrecoverable error — degraded, not
// wedged.
func TestDoubleCutGivesUp(t *testing.T) {
	k := 8
	m := newMachine(t, k)
	xs := workload.NewRNG(9).Perm(k)
	prog, _, err := resilience.SortProgram(m, xs)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf j of a K-leaf tree is heap node K+j: cut BP(0,0) out of
	// row tree 0 and column tree 0 one bit-time into the run.
	sched := fault.NewSchedule(1).
		Add(1, fault.Site{Row: true, Tree: 0, Node: k}).
		Add(1, fault.Site{Row: false, Tree: 0, Node: k}).
		Sort()
	_, rerr := resilience.Run(m, sched, prog, 0, resilience.Options{})
	if rerr == nil {
		t.Fatal("double-cut schedule recovered; want unrecoverable")
	}
	var give *resilience.GiveUpError
	if !errors.As(rerr, &give) {
		t.Fatalf("error %v (%T), want *GiveUpError", rerr, rerr)
	}
	var unreach *fault.UnreachableError
	if !errors.As(rerr, &unreach) {
		t.Fatalf("GiveUpError cause %v does not wrap *fault.UnreachableError", rerr)
	}
	if m.Err() == nil {
		t.Fatal("machine's sticky error was cleared on give-up")
	}
	if !m.FaultsMutated() {
		t.Fatal("mid-run merge did not mark the plan as mutated")
	}
}

// TestScheduleValidate exercises the schedule's own validation:
// out-of-range sites and out-of-order events are rejected.
func TestScheduleValidate(t *testing.T) {
	k := 8
	bad := fault.NewSchedule(0).Add(5, fault.Site{Row: true, Tree: k, Node: 2})
	if err := bad.Validate(k, k); err == nil {
		t.Fatal("out-of-range tree index accepted")
	}
	bad = fault.NewSchedule(0).Add(5, fault.Site{Row: true, Tree: 0, Node: 2 * k})
	if err := bad.Validate(k, k); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	bad = fault.NewSchedule(0).
		Add(9, fault.Site{Row: true, Tree: 0, Node: 2}).
		Add(5, fault.Site{Row: true, Tree: 0, Node: 3})
	if err := bad.Validate(k, k); err == nil {
		t.Fatal("out-of-order events accepted")
	}
	good := fault.RandomSchedule(k, 4, 1000, 3)
	if err := good.Validate(k, k); err != nil {
		t.Fatalf("RandomSchedule invalid: %v", err)
	}
}

// TestSnapshotRestore pins the machine snapshot contract directly:
// mutate registers, roots and routing occupancy after a snapshot,
// restore, and the machine must replay a primitive to the identical
// completion time and values.
func TestSnapshotRestore(t *testing.T) {
	k := 8
	m := newMachine(t, k)
	m.Set(core.RegA, 1, 2, 77)
	m.SetRowRoot(3, 5)
	t1 := m.RootToLeaf(core.Row(3), nil, core.RegB, 0)

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Diverge everything: new register bank, changed values, more
	// routing traffic (the doomed attempt the supervisor discards).
	m.Set(core.RegA, 1, 2, -1)
	m.Set(core.NewReg("scratch"), 0, 0, 9)
	m.SetRowRoot(3, 6)
	attempt := m.RootToLeaf(core.Row(3), nil, core.RegB, t1)

	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(core.RegA, 1, 2); got != 77 {
		t.Fatalf("RegA(1,2) = %d after restore, want 77", got)
	}
	if got := m.Get(core.NewReg("scratch"), 0, 0); got != 0 {
		t.Fatalf("post-snapshot bank survived restore: %d", got)
	}
	if got := m.RowRoot(3); got != 5 {
		t.Fatalf("row root 3 = %d after restore, want 5", got)
	}
	// Replaying from the checkpoint's timeline position must land on
	// the discarded attempt's completion time exactly (occupancy was
	// restored, so the replay sees the same contention).
	if t2 := m.RootToLeaf(core.Row(3), nil, core.RegB, t1); t2 != attempt {
		t.Fatalf("replayed RootToLeaf finished at %d, discarded attempt at %d", t2, attempt)
	}
}
