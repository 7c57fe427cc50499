package analysis

import (
	"fmt"
	"strings"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// This file is the robustness counterpart of the paper's tables: the
// OTN's redundancy argument (every BP sits on one row AND one column
// tree, so a cut tree is bypassed through its orthogonal partner) is
// measured rather than asserted. For each fault count the sweep
// injects a seed-reproducible random set of dead tree edges, reruns
// SORT-OTN and CONNECTED-COMPONENTS, checks the answers against
// fault-free references, and prices the detours in bit-times — the
// robustness surcharge on the A·T² ledger.

// FaultPoint is one measured point of a fault sweep: one workload run
// under one injected fault plan.
type FaultPoint struct {
	// Workload names the program ("sort" or "components").
	Workload string
	// N is the problem size; Faults the number of dead tree edges.
	N, Faults int
	// Healthy and Degraded are the fault-free and faulty finish
	// times; Slowdown is their ratio.
	Healthy, Degraded vlsi.Time
	Slowdown          float64
	// Correct reports the degraded answer matched the reference;
	// Recovered that every primitive completed or recovered (no
	// unrecovered failures in the health ledger).
	Correct, Recovered bool
	// Reroutes and Transients count healed events; Added is the
	// total latency charged for them.
	Reroutes, Transients int
	Added                vlsi.Time
}

// FaultSweep is the full experiment: both workloads across a range of
// fault counts at one machine size.
type FaultSweep struct {
	N      int
	Seed   uint64
	Points []FaultPoint
}

// FaultSweepStudy measures SORT-OTN and CONNECTED-COMPONENTS on an
// (n×n)-OTN under 0..maxFaults random dead tree edges. Every plan is
// derived from the seed, so the whole sweep is reproducible. A plan
// that happens to cut a base processor off both its trees is reported
// as unrecovered rather than failing the sweep — that boundary is
// part of the measurement.
func FaultSweepStudy(n, maxFaults int, seedIn uint64) (*FaultSweep, error) {
	s := &FaultSweep{N: n, Seed: seedIn}
	xs := workload.NewRNG(seedIn).Perm(n)
	wantSorted := append([]int64(nil), xs...)
	insertionSort(wantSorted)
	g := workload.NewRNG(seedIn+1).ComponentsGraph(n, 4)
	wantLabels := graph.RefComponents(g)

	healthySort, err := timeSort(n, xs, nil)
	if err != nil {
		return nil, err
	}
	healthyCC, err := timeComponents(n, g, nil)
	if err != nil {
		return nil, err
	}

	for f := 0; f <= maxFaults; f++ {
		plan := fault.Random(n, f, seedIn+uint64(f)*0x9E37)
		ps, err := timeSort(n, xs, plan)
		if err != nil {
			return nil, fmt.Errorf("sort with %d faults: %w", f, err)
		}
		ps.point.Workload = "sort"
		ps.point.N, ps.point.Faults = n, f
		ps.point.Healthy = healthySort.point.Degraded
		ps.point.Slowdown = float64(ps.point.Degraded) / float64(ps.point.Healthy)
		ps.point.Correct = equalWords(ps.sorted, wantSorted)
		s.Points = append(s.Points, ps.point)

		pc, err := timeComponents(n, g, plan)
		if err != nil {
			return nil, fmt.Errorf("components with %d faults: %w", f, err)
		}
		pc.point.Workload = "components"
		pc.point.N, pc.point.Faults = n, f
		pc.point.Healthy = healthyCC.point.Degraded
		pc.point.Slowdown = float64(pc.point.Degraded) / float64(pc.point.Healthy)
		pc.point.Correct = pc.point.Recovered && graph.SamePartition(pc.labels, wantLabels)
		s.Points = append(s.Points, pc.point)
	}
	return s, nil
}

// run captures one workload execution.
type run struct {
	point  FaultPoint
	sorted []int64
	labels []int64
}

// degradedMachine checks one machine out of the package cache and
// attaches the plan to the checkout. The whole sweep therefore reuses
// a single (n×n)-OTN across its fault plans — the plan mutates the
// checked-out copy only, and release (mcache.Return) scrubs it back
// to as-constructed state between plans. Runs that end with a sticky
// error (unrecovered plans) are dropped by the cache and the next
// checkout rebuilds; that boundary is part of the measurement, not a
// recycle shortcut.
func degradedMachine(n int, plan *fault.Plan) (*core.Machine, func(), error) {
	m, release, err := cachedOTN(n, vlsi.DefaultConfig(n*n))
	if err != nil {
		return nil, nil, err
	}
	if plan != nil {
		if err := m.InjectFaults(plan); err != nil {
			release()
			return nil, nil, err
		}
	}
	return m, release, nil
}

func harvest(m *core.Machine, r *run) {
	r.point.Recovered = m.Err() == nil
	if h := m.Health(); h != nil {
		r.point.Reroutes = h.Reroutes
		r.point.Transients = h.Transients
		r.point.Added = h.AddedLatency()
	}
}

func timeSort(n int, xs []int64, plan *fault.Plan) (*run, error) {
	m, release, err := degradedMachine(n, plan)
	if err != nil {
		return nil, err
	}
	defer release()
	r := &run{}
	r.sorted, r.point.Degraded = sorting.SortOTN(m, xs, 0)
	harvest(m, r)
	return r, nil
}

func timeComponents(n int, g *workload.Graph, plan *fault.Plan) (*run, error) {
	m, release, err := degradedMachine(n, plan)
	if err != nil {
		return nil, err
	}
	defer release()
	graph.LoadGraph(m, g)
	r := &run{}
	r.labels, r.point.Degraded = graph.ConnectedComponents(m, 0)
	harvest(m, r)
	return r, nil
}

func equalWords(a, b []int64) bool {
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

func insertionSort(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// Render prints the sweep as an aligned text table.
func (s *FaultSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault sweep on a (%d×%d)-OTN, seed %d\n", s.N, s.N, s.Seed)
	fmt.Fprintf(&b, "%-12s %7s %12s %9s %9s %12s %s\n",
		"workload", "faults", "time", "slowdown", "reroutes", "+bit-times", "status")
	for _, p := range s.Points {
		status := "ok"
		switch {
		case !p.Recovered:
			status = "UNRECOVERED"
		case !p.Correct:
			status = "WRONG ANSWER"
		}
		fmt.Fprintf(&b, "%-12s %7d %12d %9.3f %9d %12d %s\n",
			p.Workload, p.Faults, p.Degraded, p.Slowdown, p.Reroutes, p.Added, status)
	}
	return b.String()
}

// Markdown renders the sweep as a GitHub-flavoured markdown table.
func (s *FaultSweep) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Fault sweep — (%d×%d)-OTN, seed %d\n\n", s.N, s.N, s.Seed)
	b.WriteString("| workload | faults | time (bit-times) | slowdown | reroutes | added bit-times | status |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---|\n")
	for _, p := range s.Points {
		status := "ok"
		switch {
		case !p.Recovered:
			status = "unrecovered"
		case !p.Correct:
			status = "wrong answer"
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %.3f | %d | %d | %s |\n",
			p.Workload, p.Faults, p.Degraded, p.Slowdown, p.Reroutes, p.Added, status)
	}
	b.WriteString("\n")
	return b.String()
}
