// Package run is the one path from a sort or connected-components
// spec to its report: the machine shape, the engine decision, the
// input draw, the fault plan and the supervisor wiring. otsim and
// otserve both call Run, so a served job and the same otsim command
// print the same report bytes by construction.
package run

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcache"
	"repro/internal/otc"
	"repro/internal/packed"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Spec is one computation. The zero value of every optional field
// means its otsim default.
type Spec struct {
	Alg     string // "sort" (SORT-OTN) or "cc" (components of a G(N, 2/N) graph)
	Network string // "otn" (also ""), "scaled", or "otc" (§VI emulation, plain runs only)
	Model   string // wire-delay model: "log" (also ""), "const" or "linear"
	N       int
	Seed    uint64 // drives the input draw, the fault plan and the arrival schedule
	Faults  int    // random dead tree edges injected before the run
	Events  *int   // non-nil: run supervised, with this many mid-run arrivals
}

// ErrWrongAnswer marks a supervised run that recovered from every
// arrival but answered differently from its fault-free baseline.
var ErrWrongAnswer = errors.New("recovered but answered wrong")

// Validate rejects a spec whose machine or mode cannot exist. The size
// bound is the caller's (otserve has one, otsim none), and so is the
// algorithm: otsim builds spec machines for the paper's other ones.
func (s Spec) Validate() error {
	switch s.Network {
	case "", "otn", "scaled", "otc":
	default:
		return fmt.Errorf("unknown network %q (otn | scaled | otc)", s.Network)
	}
	switch s.Model {
	case "", "log", "const", "linear":
	default:
		return fmt.Errorf("unknown model %q (log | const | linear)", s.Model)
	}
	if s.Faults < 0 {
		return fmt.Errorf("faults = %d must be non-negative", s.Faults)
	}
	if s.Events != nil && *s.Events < 0 {
		return fmt.Errorf("events = %d must be non-negative", *s.Events)
	}
	if s.Events != nil && s.Faults > 0 {
		return fmt.Errorf("events (dynamic arrivals) and faults (static plan) are separate modes; pick one")
	}
	if s.Network == "otc" && (s.Faults > 0 || s.Events != nil) {
		return fmt.Errorf("faults and events name OTN tree sites; use network otn or scaled")
	}
	return nil
}

// Packed is the one engine decision: a healthy, unsupervised "cc" on a
// native network runs on the machine-free packed engine, whose reports
// are pinned byte-identical to the scalar machine's. Sorts, fault plans
// and supervised runs act during tree traversal, which the engine's
// fused duration tables cannot express; otc has no packed engine.
func (s Spec) Packed() bool {
	return s.Alg == "cc" && s.Faults == 0 && s.Events == nil && s.NetworkName() != "otc"
}

// NetworkName is the network with the default applied.
func (s Spec) NetworkName() string { return cmp.Or(s.Network, "otn") }

// ModelName is the model's short name with the default applied.
func (s Spec) ModelName() string { return cmp.Or(s.Model, "log") }

// DelayModel resolves the wire-delay model.
func (s Spec) DelayModel() vlsi.DelayModel {
	switch s.Model {
	case "const":
		return vlsi.ConstantDelay{}
	case "linear":
		return vlsi.LinearDelay{}
	default:
		return vlsi.LogDelay{}
	}
}

// Config is the machine configuration of a size-N spec: words wide
// enough for N² distinct values, under the spec's delay model.
func (s Spec) Config() vlsi.Config {
	return vlsi.Config{WordBits: vlsi.WordBitsFor(s.N * s.N), Model: s.DelayModel()}
}

// cycle is the cycle length of an otc machine's Section VI emulation.
func (s Spec) cycle() int {
	return max(1<<uint(vlsi.Log2Floor(vlsi.Log2Ceil(s.N))), 2)
}

// Key is the machine-cache shard of the spec's machine.
func (s Spec) Key() mcache.Key {
	switch s.NetworkName() {
	case "scaled":
		return mcache.ScaledOTNKey(s.N, s.Config())
	case "otc":
		return mcache.EmulatedOTNKey(s.N, s.cycle(), s.Config())
	}
	return mcache.OTNKey(s.N, s.Config())
}

// Build constructs the spec's machine.
func (s Spec) Build() (*core.Machine, error) {
	switch s.NetworkName() {
	case "otn":
		return core.New(s.N, s.Config())
	case "scaled":
		return core.NewScaled(s.N, s.Config())
	case "otc":
		return otc.NewEmulatedOTN(s.N, s.cycle(), s.Config())
	}
	return nil, fmt.Errorf("unknown network %q", s.Network)
}

// Engine returns the shared packed engine of an otn or scaled spec.
func (s Spec) Engine() (*packed.Engine, error) {
	return packed.EngineFor(s.N, s.Config(), s.NetworkName() == "scaled")
}

// FaultPlan is the static dead-edge plan injected before the run.
func (s Spec) FaultPlan() *fault.Plan {
	return fault.Random(s.N, s.Faults, s.Seed)
}

// Checkout lends Run a machine as Build makes it, and the function
// that hands it back. Run releases each machine before it checks out
// the next, so a capacity-1 cache cannot deadlock.
type Checkout func(ctx context.Context) (m *core.Machine, release func(), err error)

// Run computes the spec and returns its report and its answer: the
// sorted values, or the component labels. A run that went wrong (a
// machine error, the supervisor giving up, a wrong supervised answer)
// returns its report with the error; a nil report means it never
// started. scalar sends what Packed would run on the packed engine to
// a checked-out machine instead, for a caller that traces the machine.
func Run(ctx context.Context, s Spec, checkout Checkout, scalar bool) (*report.Report, []int64, error) {
	if s.Alg != "sort" && s.Alg != "cc" {
		return nil, nil, fmt.Errorf("unknown alg %q (sort | cc)", s.Alg)
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	switch {
	case s.Events != nil:
		return supervised(ctx, s, checkout, scalar)
	case s.Packed() && !scalar:
		return runPacked(ctx, s)
	}
	return plain(ctx, s, checkout)
}

// Report is the report of an unsupervised run of the spec that took
// elapsed on a chip of the given area. The machine that ran it, if
// any, supplies the run's error, which Report also returns, and for a
// faulty run the health ledger.
func (s Spec) Report(elapsed vlsi.Time, area vlsi.Area, m *core.Machine) (*report.Report, error) {
	metric := vlsi.Metric{Area: area, Time: elapsed}
	rep := &report.Report{
		Alg: s.Alg, Network: s.NetworkName(), Model: s.DelayModel().Name(), N: s.N, Seed: s.Seed,
		Time: int64(elapsed), Area: int64(area), AT2: metric.AT2(), Faults: s.Faults,
	}
	var err error
	if m != nil {
		err = m.Err()
	}
	if s.Faults > 0 {
		rep.Health = report.HealthOf(m.Health())
	}
	rep.Recovered = err == nil
	if err != nil {
		rep.Error = err.Error()
	}
	return rep, err
}

// runPacked serves a healthy cc run with no checkout: the engine is a
// few fused duration tables shared process-wide, and the run touches
// O(N²/64) words of adjacency.
func runPacked(ctx context.Context, s Spec) (*report.Report, []int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	eng, err := s.Engine()
	if err != nil {
		return nil, nil, err
	}
	adj := workload.NewRNG(s.Seed).GnpBits(s.N, 2.0/float64(s.N))
	labels, elapsed := eng.ComponentsPacked(adj, 0)
	rep, err := s.Report(elapsed, eng.Area(), nil)
	return rep, labels, err
}

// plain checks out the machine, injects the static fault plan if any,
// draws and runs the workload, and reports time/area/A·T² plus the
// health ledger of a faulty run.
func plain(ctx context.Context, s Spec, checkout Checkout) (*report.Report, []int64, error) {
	m, release, err := checkout(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	if s.Faults > 0 {
		if err := m.InjectFaults(s.FaultPlan()); err != nil {
			return nil, nil, err
		}
	}
	rng := workload.NewRNG(s.Seed)
	var answer []int64
	var elapsed vlsi.Time
	if s.Alg == "sort" {
		answer, elapsed = sorting.SortOTN(m, rng.Perm(s.N), 0)
	} else {
		graph.LoadGraph(m, rng.Gnp(s.N, 2.0/float64(s.N)))
		answer, elapsed = graph.ConnectedComponents(m, 0)
	}
	rep, err := s.Report(elapsed, m.Area(), m)
	return rep, answer, err
}

// supervised runs the spec under the checkpoint/rollback supervisor:
// a fault-free baseline fixes the schedule horizon and the reference
// answer, then a machine runs the spec with *s.Events mid-run
// dead-edge arrivals. The baseline is the same spec unsupervised, so
// the one engine decision picks its engine: a cc baseline runs packed,
// with no checkout, and only a sort's baseline checks out a machine.
func supervised(ctx context.Context, s Spec, checkout Checkout, scalar bool) (*report.Report, []int64, error) {
	want, healthyT, xs, g, err := baseline(ctx, s, checkout, scalar)
	if err != nil {
		return nil, nil, err
	}
	m, release, err := checkout(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	sched := fault.RandomSchedule(s.N, *s.Events, healthyT, s.Seed)
	var prog *resilience.Program
	var out func() []int64
	if s.Alg == "sort" {
		prog, out, err = resilience.SortProgram(m, xs)
	} else {
		prog, out, err = resilience.ComponentsProgram(m, g)
	}
	if err != nil {
		return nil, nil, err
	}
	done, runErr := resilience.Run(m, sched, prog, 0, resilience.Options{})

	var got []int64
	correct := false
	if runErr == nil {
		got = out()
		if s.Alg == "sort" {
			correct = slices.Equal(got, want)
		} else {
			correct = graph.SamePartition(got, want)
		}
	}
	rep, _ := s.Report(done, m.Area(), nil)
	rep.Events, rep.HealthyTime = *s.Events, int64(healthyT)
	rep.Recovered, rep.Correct = runErr == nil && correct, &correct
	rep.Health = report.HealthOf(m.Health())
	if runErr != nil {
		rep.Error = runErr.Error()
		return rep, got, runErr
	}
	if !correct {
		err := fmt.Errorf("supervised %s %w", s.Alg, ErrWrongAnswer)
		rep.Error = err.Error()
		return rep, got, err
	}
	return rep, got, nil
}

// baseline runs a supervised spec's fault-free baseline: the reference
// answer and healthy time, plus the input it drew (the permutation of
// a sort, the graph of a cc run) for the supervised run to reuse.
func baseline(ctx context.Context, s Spec, checkout Checkout, scalar bool) (want []int64, healthyT vlsi.Time, xs []int64, g *workload.Graph, err error) {
	healthy := s
	healthy.Events = nil
	rng := workload.NewRNG(s.Seed)
	if healthy.Packed() && !scalar {
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, nil, err
		}
		eng, err := s.Engine()
		if err != nil {
			return nil, 0, nil, nil, err
		}
		g = rng.Gnp(s.N, 2.0/float64(s.N))
		want, healthyT = eng.Components(g, 0)
		return want, healthyT, nil, g, nil
	}
	m, release, err := checkout(ctx)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	defer release()
	if s.Alg == "sort" {
		xs = rng.Perm(s.N)
		want, healthyT = sorting.SortOTN(m, xs, 0)
	} else {
		g = rng.Gnp(s.N, 2.0/float64(s.N))
		graph.LoadGraph(m, g)
		want, healthyT = graph.ConnectedComponents(m, 0)
	}
	return want, healthyT, xs, g, m.Err()
}
