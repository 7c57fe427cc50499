package analysis

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vlsi"
)

// flatten reduces rows to their measured quantities (the Claim field
// holds func values and cannot be compared directly).
func flatten(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s N=%d area=%d time=%d analytic=%v", r.Network, r.N, r.Area, r.Time, r.Analytic)
	}
	return out
}

func sameRows(a, b []Row) bool {
	fa, fb := flatten(a), flatten(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// Host parallelism is an implementation detail of the simulator, not
// of the simulated machine: every table must come out bit-identical
// whether the (network, N) cells run on one host worker or many, each
// cell on the goroutine that owns its machine. This is the
// repository's contract that wall-clock optimisation never moves a
// simulated quantity, and running it under -race doubles as the proof
// that the concurrent sweep is race-free.
func TestTablesDeterministicUnderHostParallelism(t *testing.T) {
	type result struct{ t1, t3 []Row }
	run := func(procs int) result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		// Table I needs even powers of two (square meshes).
		e1, err := Table1Sorting([]int{16, 64}, vlsi.LogDelay{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Table I: %v", procs, err)
		}
		e3, err := Table3Components([]int{16, 32})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Table III: %v", procs, err)
		}
		return result{e1.Rows, e3.Rows}
	}

	seq := run(1)
	par := run(4)

	if !sameRows(seq.t1, par.t1) {
		t.Errorf("Table I rows differ between sequential and parallel hosts:\nseq: %v\npar: %v", flatten(seq.t1), flatten(par.t1))
	}
	if !sameRows(seq.t3, par.t3) {
		t.Errorf("Table III rows differ between sequential and parallel hosts:\nseq: %v\npar: %v", flatten(seq.t3), flatten(par.t3))
	}
}
