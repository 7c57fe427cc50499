package mcache

import (
	"reflect"
	"testing"

	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	wl "repro/internal/workload"
)

// superviseThroughRecovery drives m through a supervised SORT-OTN
// whose schedule delivers a mid-run dead edge, so the live plan
// mutates (MergeFaults) and at least one recovery runs.
func superviseThroughRecovery(t *testing.T, m *core.Machine) {
	t.Helper()
	xs := wl.NewRNG(3).Perm(m.K)
	prog, _, err := resilience.SortProgram(m, xs)
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.NewSchedule(7).Add(1, fault.Site{Row: true, Tree: 1, Node: 2}).Sort()
	if _, err := resilience.Run(m, sched, prog, 0, resilience.Options{}); err != nil {
		t.Fatalf("supervised sort did not recover: %v", err)
	}
	if !m.FaultsMutated() {
		t.Fatal("schedule delivered but plan not marked mutated")
	}
}

// TestReturnDropsDynamicallyFaultedMachine pins the cache policy for
// the recovery supervisor: a machine whose fault plan mutated mid-run
// is dropped on Return, never parked.
func TestReturnDropsDynamicallyFaultedMachine(t *testing.T) {
	c := New()
	m, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	superviseThroughRecovery(t, m)
	c.Return(testKey(), m)
	if got := idleCount(c, testKey()); got != 0 {
		t.Fatalf("dynamically-faulted machine parked (%d idle)", got)
	}
	if s := c.Stats(); s.Drops != 1 || s.Returns != 0 {
		t.Fatalf("stats = %+v, want exactly one drop and no returns", s)
	}
}

// TestRecycleInvalidatesCompiledRoutePlans pins the plan-cache
// invalidation contract of the compiled-routing layer (PR 5) at the
// machine-cache boundary: a workload compiles routing schedules; a
// mid-run fault mutation then a Recycle must drop every one of them
// (a schedule recorded under the old fault view must never replay on
// the next tenant); and the recycled machine must recompile fresh
// plans while staying bit-identical to a fresh build.
func TestRecycleInvalidatesCompiledRoutePlans(t *testing.T) {
	m, err := buildOTN()
	if err != nil {
		t.Fatal(err)
	}
	xs := wl.NewRNG(5).Perm(testK)
	sorting.SortOTN(m, append([]int64(nil), xs...), 0)
	m.Reset() // freeze the recorded schedules into plans
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if m.RoutePlansCompiled() == 0 {
		t.Fatal("healthy sort compiled no route plans")
	}

	// Mutate the fault plan mid-run (the supervisor's MergeFaults) so
	// any surviving schedule would now describe the wrong machine.
	superviseThroughRecovery(t, m)
	m.Recycle()
	if got := m.RoutePlansCompiled(); got != 0 {
		t.Fatalf("Recycle left %d compiled route plans attached", got)
	}

	// The recycled machine must recompile and match a fresh build
	// bit-for-bit — replaying a stale plan would shift times or values.
	fresh, err := buildOTN()
	if err != nil {
		t.Fatal(err)
	}
	gotOut, gotDone := sorting.SortOTN(m, append([]int64(nil), xs...), 0)
	wantOut, wantDone := sorting.SortOTN(fresh, append([]int64(nil), xs...), 0)
	if m.Err() != nil || fresh.Err() != nil {
		t.Fatalf("errs: recycled %v, fresh %v", m.Err(), fresh.Err())
	}
	if gotDone != wantDone || !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("recycled run diverged: done %v vs %v", gotDone, wantDone)
	}
	m.Reset()
	if m.RoutePlansCompiled() == 0 {
		t.Fatal("recycled machine did not recompile route plans")
	}
}

// TestRecycledPostRecoveryMachineMatchesFresh is the scrub proof the
// drop policy leans on: even after a full mid-run recovery (merged
// plan, rollbacks, healed failures), an explicit Recycle restores a
// machine that runs a workload bit-identically to a fresh build. If
// this ever regresses, Return's drop is what keeps the cache sound.
func TestRecycledPostRecoveryMachineMatchesFresh(t *testing.T) {
	recycled, err := buildOTN()
	if err != nil {
		t.Fatal(err)
	}
	superviseThroughRecovery(t, recycled)
	recycled.Recycle()
	if recycled.FaultsMutated() {
		t.Fatal("Recycle left the dynamic-plan mark set")
	}
	if recycled.Faulty() || recycled.Health() != nil {
		t.Fatal("Recycle left fault state attached")
	}

	fresh, err := buildOTN()
	if err != nil {
		t.Fatal(err)
	}
	xs := wl.NewRNG(11).Perm(testK)
	gotOut, gotDone := sorting.SortOTN(recycled, append([]int64(nil), xs...), 0)
	wantOut, wantDone := sorting.SortOTN(fresh, append([]int64(nil), xs...), 0)
	if recycled.Err() != nil || fresh.Err() != nil {
		t.Fatalf("errs: recycled %v, fresh %v", recycled.Err(), fresh.Err())
	}
	if gotDone != wantDone {
		t.Fatalf("recycled finished at %v, fresh at %v", gotDone, wantDone)
	}
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("recycled output %v, fresh %v", gotOut, wantOut)
	}
	var _ vlsi.Time = gotDone
}
