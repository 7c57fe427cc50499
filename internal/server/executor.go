package server

import (
	"context"
	"fmt"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcache"
	"repro/internal/packed"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Executor runs validated jobs against cached machines. It is the
// part of the server whose outputs must be bit-identical to otsim:
// the RNG draw order, fault-plan derivation and supervisor wiring
// below mirror cmd/otsim/main.go line for line.
type Executor struct {
	cache *mcache.Cache
}

// NewExecutor wraps a machine cache.
func NewExecutor(c *mcache.Cache) *Executor { return &Executor{cache: c} }

// config is the machine configuration otsim builds for a size-n job.
func (j *Job) config() vlsi.Config {
	return vlsi.Config{WordBits: vlsi.WordBitsFor(j.N * j.N), Model: j.model()}
}

// key is the job's machine-cache shard.
func (j *Job) key() mcache.Key {
	if j.network() == "scaled" {
		return mcache.ScaledOTNKey(j.N, j.config())
	}
	return mcache.OTNKey(j.N, j.config())
}

// build constructs the job's machine on a cache miss.
func (j *Job) build() (*core.Machine, error) {
	if j.network() == "scaled" {
		return core.NewScaled(j.N, j.config())
	}
	return core.New(j.N, j.config())
}

// checkout acquires the job's machine under ctx (the pool's drain
// context — deadlines shed before this point, so a queued job never
// holds a machine it cannot use).
func (e *Executor) checkout(ctx context.Context, j *Job) (*core.Machine, func(), error) {
	key := j.key()
	m, err := e.cache.CheckoutContext(ctx, key, j.build)
	if err != nil {
		return nil, nil, err
	}
	return m, func() { e.cache.Return(key, m) }, nil
}

// Run executes one job solo and fills in its report. The returned
// error is the breaker-visible failure (GiveUpError, machine error);
// shed and validation failures never reach here.
func (e *Executor) Run(ctx context.Context, j *Job) (*report.Report, error) {
	if j.Supervised() {
		return e.runSupervised(ctx, j)
	}
	if j.usesPacked() {
		return e.runPacked(ctx, j)
	}
	return e.runPlain(ctx, j)
}

// runPacked serves a healthy Boolean job from the machine-free packed
// engine: no checkout, no cache pressure — the engine is a few fused
// duration tables shared process-wide, and the run touches O(N²/64)
// words of adjacency. The report is byte-identical to the scalar
// path's for the same job (same seed, same graph, same simulated time
// and area) — TestServerMatchesOtsim pins the bytes.
func (e *Executor) runPacked(ctx context.Context, j *Job) (*report.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng, err := packed.EngineFor(j.N, j.config(), j.network() == "scaled")
	if err != nil {
		return nil, err
	}
	g := workload.NewRNG(j.Seed).Gnp(j.N, 2.0/float64(j.N))
	_, elapsed := eng.Components(g, 0)
	metric := vlsi.Metric{Area: eng.Area(), Time: elapsed}
	return &report.Report{
		Alg: j.Alg, Network: j.network(), Model: j.model().Name(), N: j.N, Seed: j.Seed,
		Time: int64(elapsed), Area: int64(eng.Area()), AT2: metric.AT2(),
		Recovered: true,
		JobID:     j.ID,
	}, nil
}

// runPlain mirrors otsim's default mode: build (or check out) the
// machine, inject the static fault plan if any, run the workload, and
// report time/area/A·T² plus the health ledger for faulty runs.
func (e *Executor) runPlain(ctx context.Context, j *Job) (*report.Report, error) {
	m, release, err := e.checkout(ctx, j)
	if err != nil {
		return nil, err
	}
	defer release()

	if j.Faults > 0 {
		if err := m.InjectFaults(fault.Random(j.N, j.Faults, j.Seed)); err != nil {
			return nil, err
		}
	}
	rng := workload.NewRNG(j.Seed)
	var elapsed vlsi.Time
	switch j.Alg {
	case "sort":
		xs := rng.Perm(j.N)
		_, elapsed = sorting.SortOTN(m, xs, 0)
	case "cc":
		g := rng.Gnp(j.N, 2.0/float64(j.N))
		graph.LoadGraph(m, g)
		_, elapsed = graph.ConnectedComponents(m, 0)
	default:
		return nil, fmt.Errorf("server: unvalidated alg %q", j.Alg)
	}
	runErr := m.Err()

	metric := vlsi.Metric{Area: m.Area(), Time: elapsed}
	rep := &report.Report{
		Alg: j.Alg, Network: j.network(), Model: j.model().Name(), N: j.N, Seed: j.Seed,
		Time: int64(elapsed), Area: int64(m.Area()), AT2: metric.AT2(),
		Faults: j.Faults, Recovered: runErr == nil,
		JobID: j.ID,
	}
	if j.Faults > 0 {
		rep.Health = report.HealthOf(m.Health())
	}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	return rep, runErr
}

// runSupervised mirrors otsim -schedule: a fault-free baseline run
// fixes the schedule horizon and the reference answer, then a second
// machine runs the job under the checkpoint/rollback supervisor with
// j.Events mid-run dead-edge arrivals. The two machines are checked
// out sequentially, never held together, so a capacity-1 cache shard
// cannot deadlock.
func (e *Executor) runSupervised(ctx context.Context, j *Job) (*report.Report, error) {
	// Baseline.
	healthy, release, err := e.checkout(ctx, j)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(j.Seed)
	var xs []int64
	var g *workload.Graph
	var want []int64
	var healthyT vlsi.Time
	if j.Alg == "sort" {
		xs = rng.Perm(j.N)
		want, healthyT = sorting.SortOTN(healthy, xs, 0)
	} else {
		g = rng.Gnp(j.N, 2.0/float64(j.N))
		graph.LoadGraph(healthy, g)
		want, healthyT = graph.ConnectedComponents(healthy, 0)
	}
	baseErr := healthy.Err()
	release()
	if baseErr != nil {
		return nil, baseErr
	}

	// Supervised run.
	m, release, err := e.checkout(ctx, j)
	if err != nil {
		return nil, err
	}
	defer release()
	sched := fault.RandomSchedule(j.N, *j.Events, healthyT, j.Seed)
	var prog *resilience.Program
	var out func() []int64
	if j.Alg == "sort" {
		prog, out, err = resilience.SortProgram(m, xs)
	} else {
		prog, out, err = resilience.ComponentsProgram(m, g)
	}
	if err != nil {
		return nil, err
	}
	done, runErr := resilience.Run(m, sched, prog, 0, resilience.Options{})

	correct := false
	if runErr == nil {
		got := out()
		if j.Alg == "sort" {
			correct = len(got) == len(want)
			for i := range got {
				correct = correct && got[i] == want[i]
			}
		} else {
			correct = graph.SamePartition(got, want)
		}
	}
	recovered := runErr == nil && correct

	metric := vlsi.Metric{Area: m.Area(), Time: done}
	rep := &report.Report{
		Alg: j.Alg, Network: j.network(), Model: j.model().Name(), N: j.N, Seed: j.Seed,
		Events: *j.Events, HealthyTime: int64(healthyT),
		Time: int64(done), Area: int64(m.Area()), AT2: metric.AT2(),
		Recovered: recovered, Correct: &correct,
		Health: report.HealthOf(m.Health()),
		JobID:  j.ID,
	}
	if runErr != nil {
		rep.Error = runErr.Error()
		return rep, runErr
	}
	if !correct {
		rep.Error = fmt.Sprintf("supervised %s recovered but answered wrong", j.Alg)
		return rep, fmt.Errorf("server: %s", rep.Error)
	}
	return rep, nil
}
