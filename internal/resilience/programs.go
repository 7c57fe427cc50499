package resilience

import (
	"fmt"
	"sort"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// This file decomposes the repository's multi-primitive workloads
// into supervised Programs. Each step body is the same code the
// monolithic implementations run (SORT-OTN's five steps, one
// connected-components round per step), which is what makes the
// zero-event supervised run bit-identical to the direct call.

// SortProgram decomposes procedure SORT-OTN over inputs xs into five
// checkpointable steps. The returned extractor reads the sorted
// output (the column-root registers) after a successful Run. The
// final step carries a checksum: the output must be a sorted
// permutation of the input, the end-to-end check the fault model
// prices as free.
func SortProgram(m *core.Machine, xs []int64) (*Program, func() []int64, error) {
	k := m.K
	if len(xs) != k {
		return nil, nil, &core.MisuseError{Op: "SortProgram", Reason: fmt.Sprintf("%d inputs on a (%d×%d)-OTN", len(xs), k, k)}
	}
	prog := &Program{Name: "sort-otn"}
	prog.Steps = []Step{
		{
			Name: "root-to-leaf",
			Run: func(rel vlsi.Time) vlsi.Time {
				for i, x := range xs {
					m.SetRowRoot(i, x)
				}
				return m.ParDo(true, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
					return m.RootToLeaf(vec, nil, core.RegA, r)
				})
			},
		},
		{
			Name: "leaf-to-leaf",
			Run: func(rel vlsi.Time) vlsi.Time {
				return sorting.DiagonalStep(m, core.RegA, core.RegB, rel)
			},
		},
		{
			Name: "compare",
			Run: func(rel vlsi.Time) vlsi.Time {
				return sorting.CompareStep(m, core.RegA, core.RegB, core.RegFlag, rel)
			},
		},
		{
			Name: "count-rank",
			Run: func(rel vlsi.Time) vlsi.Time {
				return m.ParDo(true, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
					return m.CountLeafToLeaf(vec, core.RegFlag, nil, core.RegR, r)
				})
			},
		},
		{
			Name: "rank-to-root",
			Run: func(rel vlsi.Time) vlsi.Time {
				return sorting.RankStep(m, core.RegR, core.RegA, rel)
			},
			Check: func() error {
				want := append([]int64(nil), xs...)
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				for i := 0; i < k; i++ {
					if m.ColRoot(i) != want[i] {
						return &ChecksumError{Program: "sort-otn", Step: "rank-to-root",
							Reason: fmt.Sprintf("output[%d] = %d, want %d", i, m.ColRoot(i), want[i])}
					}
				}
				return nil
			},
		},
	}
	out := func() []int64 {
		res := make([]int64, k)
		for i := 0; i < k; i++ {
			res[i] = m.ColRoot(i)
		}
		return res
	}
	return prog, out, nil
}

// ComponentsProgram decomposes connected components over g into one
// load step plus one step per hook-and-contract round, with the same
// round bound and early exit ConnectedComponents uses. The labels
// (host-side state) ride the program's Snapshot/Restore hooks so a
// rollback rewinds them together with the machine. The extractor
// returns the final labelling.
func ComponentsProgram(m *core.Machine, g *workload.Graph) (*Program, func() []int64, error) {
	n := m.K
	if g.N != n {
		return nil, nil, &core.MisuseError{Op: "ComponentsProgram", Reason: fmt.Sprintf("%d vertices on a (%d×%d)-OTN", g.N, n, n)}
	}
	d := make([]int64, n)
	for v := range d {
		d[v] = int64(v)
	}
	converged := false

	prog := &Program{
		Name: "connected-components",
		Snapshot: func() any {
			return &ccState{d: append([]int64(nil), d...), converged: converged}
		},
		Restore: func(s any) {
			st := s.(*ccState)
			copy(d, st.d)
			converged = st.converged
		},
	}
	prog.Steps = append(prog.Steps, Step{
		Name: "load-graph",
		Run: func(rel vlsi.Time) vlsi.Time {
			graph.LoadGraph(m, g)
			return rel
		},
	})
	for round := 0; round < graph.ComponentsMaxRounds(n); round++ {
		prog.Steps = append(prog.Steps, Step{
			Name: fmt.Sprintf("round-%d", round),
			Skip: func() bool { return converged },
			Run: func(rel vlsi.Time) vlsi.Time {
				nd, t, changed := graph.ComponentsRound(m, d, rel)
				copy(d, nd)
				if !changed {
					converged = true
				}
				return t
			},
		})
	}
	out := func() []int64 { return append([]int64(nil), d...) }
	return prog, out, nil
}

// ccState is ComponentsProgram's host-side checkpoint payload.
type ccState struct {
	d         []int64
	converged bool
}
