package sorting

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestSortOTNSingleDeadEdge is the headline robustness acceptance
// test: with ANY single row-tree edge dead at N=64, SORT-OTN still
// sorts correctly, via degraded-mode rerouting through the column
// trees. Every edge position is exercised (the row index varies with
// the node so several trees are covered too).
func TestSortOTNSingleDeadEdge(t *testing.T) {
	k := 64
	xs := workload.NewRNG(64).Perm(k)
	want := sortedCopy(xs)
	for node := 2; node < 2*k; node++ {
		m := machine(t, k)
		row := node % k
		if err := m.InjectFaults(fault.New(7).KillEdge(true, row, node)); err != nil {
			t.Fatal(err)
		}
		got, done := SortOTN(m, xs, 0)
		if err := m.Err(); err != nil {
			t.Fatalf("dead edge row(%d).node(%d): sort failed: %v", row, node, err)
		}
		if !equal(got, want) {
			t.Fatalf("dead edge row(%d).node(%d): sorted %v", row, node, got)
		}
		if done <= 0 {
			t.Fatalf("dead edge row(%d).node(%d): no time charged", row, node)
		}
	}
}

// TestSortOTNDeadColumnEdge: symmetry — a dead column-tree edge is
// healed by rerouting through row trees.
func TestSortOTNDeadColumnEdge(t *testing.T) {
	k := 32
	xs := workload.NewRNG(32).Perm(k)
	want := sortedCopy(xs)
	for _, node := range []int{2, 7, 33, 63} {
		m := machine(t, k)
		if err := m.InjectFaults(fault.New(7).KillEdge(false, 5, node)); err != nil {
			t.Fatal(err)
		}
		got, _ := SortOTN(m, xs, 0)
		if m.Err() != nil || !equal(got, want) {
			t.Fatalf("dead col edge node %d: err=%v got=%v", node, m.Err(), got)
		}
	}
}

// TestSortOTNSlowdownMeasured: degraded sorting must cost strictly
// more bit-times than healthy sorting — robustness is charged to the
// A·T² ledger, not free.
func TestSortOTNSlowdownMeasured(t *testing.T) {
	k := 64
	xs := workload.NewRNG(7).Perm(k)
	mh := machine(t, k)
	_, healthy := SortOTN(mh, xs, 0)
	mf := machine(t, k)
	if err := mf.InjectFaults(fault.New(7).KillEdge(true, 3, 2)); err != nil {
		t.Fatal(err)
	}
	_, degraded := SortOTN(mf, xs, 0)
	if degraded <= healthy {
		t.Errorf("degraded sort (%d) not slower than healthy (%d)", degraded, healthy)
	}
	if mf.Health().Reroutes == 0 {
		t.Error("no reroutes recorded")
	}
	if mf.Health().AddedLatency() <= 0 {
		t.Error("no added latency recorded")
	}
}

// TestSortOTNTransients: under a transient corruption rate the sort
// stays correct (parity + retry) and the retries are recorded.
func TestSortOTNTransients(t *testing.T) {
	k := 32
	xs := workload.NewRNG(9).Perm(k)
	want := sortedCopy(xs)
	m := machine(t, k)
	if err := m.InjectFaults(fault.New(1983).WithTransients(0.2)); err != nil {
		t.Fatal(err)
	}
	got, _ := SortOTN(m, xs, 0)
	if m.Err() != nil {
		t.Fatalf("transient sort failed: %v", m.Err())
	}
	if !equal(got, want) {
		t.Fatalf("transient sort wrong: %v", got)
	}
	if m.Health().Transients == 0 {
		t.Error("rate 0.2 produced no transients across a whole sort")
	}
	if m.Health().Retries != m.Health().Transients {
		t.Errorf("retries %d != transients %d (no storm expected here)",
			m.Health().Retries, m.Health().Transients)
	}
}

// TestSortOTNEmptyPlanIdentical: an empty plan is bit-identical to no
// plan on a full sort — the zero-cost guarantee end to end.
func TestSortOTNEmptyPlanIdentical(t *testing.T) {
	k := 32
	xs := workload.NewRNG(3).Perm(k)
	ma := machine(t, k)
	mb := machine(t, k)
	if err := mb.InjectFaults(fault.New(42)); err != nil {
		t.Fatal(err)
	}
	ga, da := SortOTN(ma, xs, 0)
	gb, db := SortOTN(mb, xs, 0)
	if da != db {
		t.Errorf("empty plan changed sort time: %d vs %d", da, db)
	}
	if !equal(ga, gb) {
		t.Error("empty plan changed sort output")
	}
}

// TestSortOTNStuckBPGolden pins SORT-OTN on a K=8 machine with one
// stuck BP, off the diagonal (both orientations) and on it: the
// output ports, the completion time, the flag bank, the sticky error
// and the health ledger. A stuck BP's register file is frozen at
// zero, so step 3 must not write its flag even though every other BP
// of its row does. Below the diagonal its frozen A = B = 0 tie-breaks
// to flag 1, so the (5,2) case fails if step 3 writes past the freeze.
func TestSortOTNStuckBPGolden(t *testing.T) {
	xs := []int64{5, 3, 7, 3, 6, 0, 4, 2}
	const ledger = "health: 0 dead edge(s), 0 dead IP(s), 1 stuck BP(s)\n" +
		"  transients caught: 0 (retries: 0, +0 bit-times)\n" +
		"  rerouted words:    0 (+0 bit-times)\n"
	for _, c := range []struct {
		i, j   int
		out    []int64
		flags  [8]string
		err    string // the sticky error, "" for none
		health string // the ledger's last line
	}{
		{2, 5, []int64{0, 2, 3, 3, 4, 5, 4, 2},
			[8]string{"01010111", "00000101", "11011011", "01000101", "11010111", "00000000", "01010101", "00000100"},
			"core: LEAFTOROOT on column(6) selected 2 BPs, want exactly one",
			"  UNRECOVERED: 2 failure(s); first: core: LEAFTOROOT on column(6) selected 2 BPs, want exactly one\n"},
		{5, 2, []int64{0, 2, 3, 3, 4, 5, 6, 7},
			[8]string{"01010111", "00000101", "11011111", "01000101", "11010111", "00000000", "01010101", "00000100"},
			"", "  all operations completed or recovered\n"},
		{3, 3, []int64{5, 0, 2, 3, 4, 5, 6, 7},
			[8]string{"01010111", "00010101", "11011111", "01000101", "11010111", "00010000", "01010101", "00010100"},
			"core: LEAFTOROOT on column(0) selected no BP",
			"  UNRECOVERED: 1 failure(s); first: core: LEAFTOROOT on column(0) selected no BP\n"},
	} {
		m := machine(t, 8)
		if err := m.InjectFaults(fault.New(1).StickBP(c.i, c.j)); err != nil {
			t.Fatal(err)
		}
		got, done := SortOTN(m, xs, 0)
		if !equal(got, c.out) || done != 153 {
			t.Errorf("stuck (%d,%d): out %v at %d, want %v at 153", c.i, c.j, got, done, c.out)
		}
		flag := m.Bank(core.RegFlag)
		for i, want := range c.flags {
			row := ""
			for _, f := range flag[i*8 : i*8+8] {
				row += fmt.Sprint(f)
			}
			if row != want {
				t.Errorf("stuck (%d,%d): flag row %d = %s, want %s", c.i, c.j, i, row, want)
			}
		}
		gotErr := ""
		if err := m.Err(); err != nil {
			gotErr = err.Error()
		}
		if gotErr != c.err {
			t.Errorf("stuck (%d,%d): error %q, want %q", c.i, c.j, gotErr, c.err)
		}
		if h := m.HealthReport(); h != ledger+c.health {
			t.Errorf("stuck (%d,%d): health\n%s\nwant\n%s", c.i, c.j, h, ledger+c.health)
		}
	}
}
