// Package sorting implements the paper's sorting algorithms on the
// orthogonal trees network and the orthogonal tree cycles:
//
//   - SORT-OTN (Section II-B): rank sorting of K numbers on a
//     (K×K)-OTN in Θ(log² K) bit-times.
//   - Pipelined SORT-OTN (Section VIII, feature 4): a stream of sort
//     problems through the same network, one sorted batch emerging
//     every Θ(log N) bit-times once the pipeline fills.
//   - Bitonic sort (Section IV): N = K² numbers on a (K×K)-OTN in
//     Θ(√N log N) bit-times, the tree-routed version of the
//     Nassimi–Sahni mesh algorithm.
package sorting

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vlsi"
)

// SortOTN runs procedure SORT-OTN: the K numbers xs, presented at the
// input ports (row-tree roots), are sorted ascending and delivered at
// the output ports (column-tree roots). It implements the paper's
// five steps, with the modified step 3 that tie-breaks equal keys on
// row index so duplicate inputs are handled (end of Section II-B).
//
// It returns the sorted values and the completion time in bit-times
// from the release time rel.
func SortOTN(m *core.Machine, xs []int64, rel vlsi.Time) ([]int64, vlsi.Time) {
	k := m.K
	if len(xs) != k {
		panic(fmt.Sprintf("sorting: %d inputs on a (%d×%d)-OTN", len(xs), k, k))
	}
	for i, x := range xs {
		m.SetRowRoot(i, x)
	}

	// Step 1: ROOTTOLEAF(row(i), dest=(all, A)) — x(i) to every BP
	// of row i.
	t := m.ParDo(true, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.RootToLeaf(vec, nil, core.RegA, r)
	})

	// Step 2: LEAFTOLEAF(column(i), source=(i, A), dest=(all, B)) —
	// x(i) from BP(i,i) to every BP of column i, so BP(i,j) now
	// holds A=x(i), B=x(j).
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.LeafToLeaf(vec, core.One(vec.Index), core.RegA, nil, core.RegB, r)
	})

	// Step 3 (modified for duplicates): flag(i,j) = 1 iff
	// A(i,j) > B(i,j) or (A = B and i > j).
	t = CompareStep(m, core.RegA, core.RegB, core.RegFlag, t)

	// Step 4: COUNT-LEAFTOLEAF(row(i), dest=(all, R)) — the rank of
	// x(i) lands in R of every BP of row i.
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.CountLeafToLeaf(vec, core.RegFlag, nil, core.RegR, r)
	})

	// Step 5: LEAFTOROOT(column(i), source=(j : R(j,i) = i, A)) —
	// column i extracts the element of rank i.
	t = RankStep(m, core.RegR, core.RegA, t)

	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = m.ColRoot(i)
	}
	return out, t
}

// CompareStep is step 3 of SORT-OTN, modified for duplicate keys:
// every BP(i,j) sets flag(i,j) = 1 iff a(i,j) > b(i,j), or a = b and
// i > j, else 0, in one local word comparison after rel. The host
// sweeps the a and b banks row by row, splitting each row at the
// diagonal so the tie-break becomes >= left of it and > from it on;
// the flag writes go through Set, so stuck BPs stay frozen.
func CompareStep(m *core.Machine, a, b, flag core.Reg, rel vlsi.Time) vlsi.Time {
	k := m.K
	av, bv := m.Bank(a), m.Bank(b)
	for i := 0; i < k; i++ {
		ra := av[i*k : (i+1)*k]
		rb := bv[i*k : (i+1)*k]
		rb = rb[:len(ra)]
		for j := 0; j < i; j++ {
			var f int64
			if ra[j] >= rb[j] {
				f = 1
			}
			m.Set(flag, i, j, f)
		}
		for j := i; j < len(ra); j++ {
			var f int64
			if ra[j] > rb[j] {
				f = 1
			}
			m.Set(flag, i, j, f)
		}
	}
	return m.Local(rel, m.CostCompare())
}

// RankStep is step 5 of SORT-OTN: column tree i extracts register src
// of the one BP(j,i) whose rank register holds i, leaving the element
// of rank i at output port i. The selectors read the rank bank
// through one view hoisted out of the K column sweeps.
func RankStep(m *core.Machine, rank, src core.Reg, rel vlsi.Time) vlsi.Time {
	k := m.K
	rv := m.Bank(rank)
	return m.ParDo(false, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		i := vec.Index
		sel := func(j int) bool { return rv[j*k+i] == int64(i) }
		return m.LeafToRoot(vec, sel, src, r)
	})
}

// PipelineResult describes one batch of a pipelined sort stream.
type PipelineResult struct {
	// Sorted is the batch's output.
	Sorted []int64
	// Done is the completion time of the batch at the output ports.
	Done vlsi.Time
}

// SortOTNPipelined streams a series of sort problems through one OTN
// (Section VIII, feature 4). Batch b is presented at the input ports
// at time b·interval. As the paper prescribes, every in-flight batch
// has its own register set at each BP (the Θ(log² N) bits of problem
// storage) and the steps are issued phase by phase across batches —
// the time-sliced schedule in which "there can be O(log N) distinct
// problems in the network at one time, each in a different stage of
// computation". The routers' persistent edge occupancy then yields
// the steady-state output spacing of Θ(log N) bit-times per batch,
// rather than the full Θ(log² N) latency of one problem.
func SortOTNPipelined(m *core.Machine, batches [][]int64, interval vlsi.Time) []PipelineResult {
	k := m.K
	n := len(batches)
	out := make([]PipelineResult, n)
	times := make([]vlsi.Time, n)
	regA := make([]core.Reg, n)
	regB := make([]core.Reg, n)
	regF := make([]core.Reg, n)
	regR := make([]core.Reg, n)
	for b, xs := range batches {
		if len(xs) != k {
			panic(fmt.Sprintf("sorting: batch %d has %d inputs on a (%d×%d)-OTN", b, len(xs), k, k))
		}
		regA[b] = core.NewReg(fmt.Sprintf("A.%d", b))
		regB[b] = core.NewReg(fmt.Sprintf("B.%d", b))
		regF[b] = core.NewReg(fmt.Sprintf("flag.%d", b))
		regR[b] = core.NewReg(fmt.Sprintf("R.%d", b))
		times[b] = vlsi.Time(b) * interval
	}

	// Phase 1: step 1 of every batch — x(i) down the row trees.
	for b := range batches {
		for i, x := range batches[b] {
			m.SetRowRoot(i, x)
		}
		times[b] = m.ParDo(true, times[b], func(vec core.Vector, r vlsi.Time) vlsi.Time {
			return m.RootToLeaf(vec, nil, regA[b], r)
		})
	}
	// Phase 2: step 2 — x(j) down the column trees.
	for b := range batches {
		times[b] = m.ParDo(false, times[b], func(vec core.Vector, r vlsi.Time) vlsi.Time {
			return m.LeafToLeaf(vec, core.One(vec.Index), regA[b], nil, regB[b], r)
		})
	}
	// Phase 3: step 3, the local comparison (modified for duplicate
	// keys).
	for b := range batches {
		times[b] = CompareStep(m, regA[b], regB[b], regF[b], times[b])
	}
	// Phase 4: step 4 — ranks along the row trees.
	for b := range batches {
		times[b] = m.ParDo(true, times[b], func(vec core.Vector, r vlsi.Time) vlsi.Time {
			return m.CountLeafToLeaf(vec, regF[b], nil, regR[b], r)
		})
	}
	// Phase 5: step 5 — rank-i element up column tree i.
	for b := range batches {
		times[b] = RankStep(m, regR[b], regA[b], times[b])
		sorted := make([]int64, k)
		for i := 0; i < k; i++ {
			sorted[i] = m.ColRoot(i)
		}
		out[b] = PipelineResult{Sorted: sorted, Done: times[b]}
	}
	return out
}
