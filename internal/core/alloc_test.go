package core

import (
	"runtime"
	"testing"

	"repro/internal/vlsi"
)

// The paper's programs issue Θ(K) primitive calls per ParDo step and
// Θ(K log K) steps per run, so per-call garbage on these paths turns
// directly into GC pressure at sweep sizes. After the flat-bank and
// scratch-arena work the healthy (non-faulty) primitives run
// allocation-free; these tests pin that so a regression shows up as a
// test failure, not as a slow sweep.

func requireAllocs(t *testing.T, op string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, f); got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", op, got, want)
	}
}

func TestPrimitivesAllocationFree(t *testing.T) {
	m, err := NewDefault(64, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	vec := Vector{IsRow: true}
	m.Set(RegA, 0, 5, 42)
	sel := One(5)
	perm := make([]int, m.K)
	for i := range perm {
		perm[i] = (i + 7) % m.K
	}
	asc := func(int) bool { return true }
	regF := NewReg("F")
	// Touch both registers once so the banks exist before measuring.
	m.LeafToLeaf(vec, sel, RegA, All, RegB, 0)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}

	requireAllocs(t, "RootToLeaf", 0, func() { m.Reset(); m.RootToLeaf(vec, nil, RegA, 0) })
	requireAllocs(t, "LeafToRoot", 0, func() { m.Reset(); m.LeafToRoot(vec, sel, RegA, 0) })
	requireAllocs(t, "LeafToLeaf", 0, func() { m.Reset(); m.LeafToLeaf(vec, sel, RegA, All, RegB, 0) })
	requireAllocs(t, "CountLeafToRoot", 0, func() { m.Reset(); m.CountLeafToRoot(vec, regF, 0) })
	requireAllocs(t, "SumLeafToRoot", 0, func() { m.Reset(); m.SumLeafToRoot(vec, All, RegA, 0) })
	requireAllocs(t, "MinLeafToRoot", 0, func() { m.Reset(); m.MinLeafToRoot(vec, All, RegA, 0) })
	requireAllocs(t, "CompareExchange", 0, func() { m.Reset(); m.CompareExchange(vec, 8, RegA, asc, 0) })
	// PermuteVector stages through the machine's own scratch.
	requireAllocs(t, "PermuteVector", 0, func() { m.Reset(); m.PermuteVector(vec, perm, RegA, RegB, 0) })
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// A full ParDo sweep over K rows is allocation-free: the body closure
// does not escape the sequential loop, and the per-row primitives
// inside stay free.
func TestParDoSweepAllocations(t *testing.T) {
	m, err := NewDefault(64, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	sel := One(5)
	m.Set(RegA, 0, 5, 1)
	warmSweep(m, sel)
	requireAllocs(t, "ParDo(LeafToRoot)", 0, func() { leafToRootSweep(m, sel) })
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// warmSweep runs the two sweeps that record and publish the route
// plans, so a count that follows sees the steady state whether or not
// an earlier test already left those plans in the shared PlanCache.
func warmSweep(m *Machine, sel Sel) {
	leafToRootSweep(m, sel)
	leafToRootSweep(m, sel)
}

func leafToRootSweep(m *Machine, sel Sel) {
	m.Reset()
	m.ParDo(true, 0, func(v Vector, rel vlsi.Time) vlsi.Time {
		return m.LeafToRoot(v, sel, RegA, rel)
	})
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1)
// pin: it counts heap allocations at whatever GOMAXPROCS the caller
// set, one warm-up run first, integer average over runs.
func mallocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// A Machine runs on the goroutine that owns it, so the host's core
// count must not change what it allocates. testing.AllocsPerRun pins
// GOMAXPROCS to 1 and so cannot see a per-core pool or worker fan-out;
// this test counts at 1 and at 2 and requires equal counts.
func TestAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	m, err := NewDefault(64, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	sel := One(5)
	m.Set(RegA, 0, 5, 1)
	warmSweep(m, sel)
	cases := []struct {
		name string
		f    func()
	}{
		{"ParDo(LeafToRoot) K=64", func() { leafToRootSweep(m, sel) }},
		{"NewDefault(64, 4096)", func() {
			if _, err := NewDefault(64, 64*64); err != nil {
				t.Fatal(err)
			}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		runtime.GOMAXPROCS(1)
		one := mallocsPerRun(20, c.f)
		runtime.GOMAXPROCS(2)
		two := mallocsPerRun(20, c.f)
		t.Logf("%s: %d allocs/op at GOMAXPROCS=1, %d at 2", c.name, one, two)
		if one != two {
			t.Errorf("%s: allocs/op depend on GOMAXPROCS", c.name)
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}
