// Command otsim runs one of the paper's algorithms on a chosen
// network at a chosen size and prints the result, the simulated time
// in bit-times, the chip area, the A·T² figure of merit, and — with
// -trace — every communication primitive the machine executed.
//
// Sort and cc go through internal/run, the job path otserve serves, so
// `otsim -json` prints the bytes a /jobs request for the same spec
// answers with. A healthy cc run takes the packed engine there, unless
// -trace or -summary asks for the machine's primitives.
//
// Usage:
//
//	otsim -alg sort -n 64
//	otsim -alg sort -n 64 -network otc      # Section VI block emulation
//	otsim -alg sort -n 64 -network scaled   # Thompson scaling [31]
//	otsim -alg sort -n 64 -faults 3 -seed 7 # degraded-mode run + health report
//	otsim -alg sort -n 64 -schedule 3       # mid-run fault arrivals + checkpoint/rollback recovery
//	otsim -alg cc -n 32 -schedule 2 -json   # machine-readable recovery report on stdout
//	otsim -alg cc -n 32 -model const -trace
//	otsim -alg mst -n 16 -summary           # primitive-mix statistics
//	otsim -alg matmul -n 8
//	otsim -alg bitonic -n 64
//	otsim -alg dft -n 64
//
// With -json, stdout carries one report.Report (internal/report, the
// schema otserve and otload share); recovered is false exactly when
// the exit status is non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"

	orthotrees "repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/run"
	"repro/internal/vlsi"
)

func main() {
	switch err := otsim(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "otsim: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports bad flags, which the flag set has already printed
// together with the usage.
var errUsage = errors.New("usage")

// otsim runs the command line args, printing the human narration to
// stdout (stderr under -json, where stdout carries exactly one JSON
// report). A non-nil error means a non-zero exit status.
func otsim(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("otsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", "sort", "sort | bitonic | cc | mst | matmul | dft | closure | intmul | matmul3d")
	n := fs.Int("n", 64, "problem size (power of two; even power for bitonic/dft)")
	network := fs.String("network", "otn", "otn | scaled | otc (OTC = Section VI block emulation)")
	model := fs.String("model", "log", "wire-delay model: log | const | linear")
	seed := fs.Uint64("seed", 1983, "workload seed")
	faults := fs.Int("faults", 0, "inject this many random dead tree edges (seeded by -seed) and print the health report")
	schedule := fs.Int("schedule", -1, "run under the recovery supervisor with this many mid-run dead-edge arrivals (sort/cc on otn/scaled; 0 = supervised but fault-free)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report on stdout (human output moves to stderr); exit status stays non-zero on unrecoverable runs")
	trace := fs.Bool("trace", false, "print every communication primitive")
	summary := fs.Bool("summary", false, "print the primitive-mix summary after the run (under -schedule: of the baseline and the supervised run)")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return nil
	case err != nil:
		return errUsage
	}

	narration := stdout
	if *jsonOut {
		narration = stderr
	}
	say := func(format string, args ...any) { fmt.Fprintf(narration, format, args...) }

	spec := run.Spec{Alg: *alg, Network: *network, Model: *model, N: *n, Seed: *seed, Faults: *faults}
	if *schedule >= 0 {
		if *alg != "sort" && *alg != "cc" {
			return fmt.Errorf("-schedule supports -alg sort or cc, not %q", *alg)
		}
		spec.Events = schedule
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	// build makes every machine of the run and hooks -trace or -summary
	// into it; last keeps the latest one for the health report.
	var recorder *orthotrees.TraceRecorder
	if *summary {
		recorder = &orthotrees.TraceRecorder{}
	}
	var last *orthotrees.Machine
	build := func(s run.Spec) (*orthotrees.Machine, error) {
		m, err := s.Build()
		if err != nil {
			return nil, err
		}
		switch {
		case recorder != nil:
			recorder.Attach(m)
		case *trace:
			m.Tracer = func(op string, vec core.Vector, start, end vlsi.Time) {
				say("  t=%-8d %-18s %-12s done t=%d\n", start, op, vec, end)
			}
		}
		last = m
		return m, nil
	}

	var rep *report.Report
	var err error
	if *alg == "sort" || *alg == "cc" {
		checkout := func(context.Context) (*core.Machine, func(), error) {
			m, err := build(spec)
			return m, func() {}, err
		}
		var answer []int64
		if rep, answer, err = run.Run(context.Background(), spec, checkout, *trace || *summary); rep == nil {
			return err
		}
		switch {
		case spec.Events != nil:
			say("supervised %s on a (%d×%d)-OTN (%s): %d scheduled arrival(s)\n", *alg, *n, *n, *network, *schedule)
			say("  healthy baseline: %d bit-times\n", rep.HealthyTime)
			say("  supervised run:   %d bit-times (%.3fx)\n", rep.Time, float64(rep.Time)/float64(rep.HealthyTime))
			if h := last.Health(); h != nil {
				say("%s", h.Report())
			} else {
				say("  empty schedule: recovery machinery never engaged\n")
			}
		case *alg == "sort":
			say("sorted %d numbers; first/last = %d/%d\n", *n, answer[0], answer[len(answer)-1])
		default:
			comp := map[int64]bool{}
			for _, l := range answer {
				comp[l] = true
			}
			say("graph with %d vertices: %d components\n", *n, len(comp))
		}
	} else if rep, err = paper(spec, build, say); rep == nil {
		return err
	}

	if spec.Events == nil {
		say("network=%s model=%s N=%d: time=%d bit-times, area=%d λ², A·T²=%.4g\n",
			*network, rep.Model, *n, rep.Time, rep.Area, rep.AT2)
	}
	if recorder != nil {
		say("%s", recorder.Summary())
	}
	if *faults > 0 {
		say("%s", last.HealthReport())
	}
	if *jsonOut {
		data, err := rep.Marshal()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	}
	switch {
	case err == nil, errors.Is(err, run.ErrWrongAnswer):
		return err
	case spec.Events != nil:
		return fmt.Errorf("supervisor gave up: %w", err)
	}
	return fmt.Errorf("simulation did not recover: %w", err)
}

// paper runs one of the paper's algorithms other than sort and cc on
// its own machine, built by build (with the spec's fault plan) for the
// OTN-based ones. Every flag is checked before anything is built.
func paper(spec run.Spec, build func(run.Spec) (*orthotrees.Machine, error), say func(string, ...any)) (*report.Report, error) {
	n := spec.N
	machine := func(k int) (*orthotrees.Machine, error) {
		s := spec
		s.N = k
		m, err := build(s)
		if err == nil && s.Faults > 0 {
			err = m.InjectFaults(s.FaultPlan())
		}
		return m, err
	}
	var m *orthotrees.Machine
	var err error
	switch spec.Alg {
	case "bitonic", "dft":
		var k int
		if k, err = sideOf(n); err == nil {
			m, err = machine(k)
		}
	case "mst", "intmul":
		m, err = machine(n)
	case "matmul", "closure", "matmul3d":
		if spec.Faults > 0 {
			return nil, fmt.Errorf("-faults is not supported by -alg %s", spec.Alg)
		}
	default:
		return nil, fmt.Errorf("unknown algorithm %q", spec.Alg)
	}
	if err != nil {
		return nil, err
	}

	rng := orthotrees.NewRNG(spec.Seed)
	var elapsed orthotrees.Time
	var area orthotrees.Area
	switch spec.Alg {
	case "bitonic":
		sorted, t := orthotrees.BitonicSort(m, rng.Ints(n, 1<<20))
		say("bitonic-sorted %d numbers; first/last = %d/%d\n", n, sorted[0], sorted[len(sorted)-1])
		elapsed, area = t, m.Area()
	case "mst":
		orthotrees.LoadWeights(m, rng.WeightMatrix(n))
		edges, t := orthotrees.MinSpanningTree(m)
		var total int64
		for _, e := range edges {
			total += e.W
		}
		say("MST of complete %d-vertex graph: %d edges, weight %d\n", n, len(edges), total)
		elapsed, area = t, m.Area()
	case "matmul", "closure":
		mm, err := orthotrees.NewMatMulMachine(n)
		if err != nil {
			return nil, err
		}
		if spec.Alg == "matmul" {
			a := rng.BoolMatrix(n, 0.4)
			c, t := orthotrees.BoolMatMul(mm, a, rng.BoolMatrix(n, 0.4))
			say("Boolean %d×%d product: %d ones\n", n, n, ones(c))
			elapsed = t
		} else {
			c, t := orthotrees.TransitiveClosure(mm, rng.BoolMatrix(n, 0.2))
			say("transitive closure of %d vertices: %d reachable pairs\n", n, ones(c))
			elapsed = t
		}
		area = mm.Area()
	case "dft":
		xf, t := orthotrees.DFT(m, rng.ComplexSignal(n))
		say("%d-point DFT; |X[0]| = %.3f\n", n, math.Hypot(real(xf[0]), imag(xf[0])))
		elapsed, area = t, m.Area()
	case "intmul":
		x := new(big.Int).Lsh(big.NewInt(1), uint(4*n-1))
		x.Sub(x, big.NewInt(12345))
		y := new(big.Int).Lsh(big.NewInt(1), uint(4*n-2))
		y.Add(y, big.NewInt(6789))
		p, t := orthotrees.MultiplyIntegers(m, x, y)
		say("%d-bit × %d-bit integer product has %d bits\n", x.BitLen(), y.BitLen(), p.BitLen())
		elapsed, area = t, m.Area()
	case "matmul3d":
		m3, err := orthotrees.NewMoT3D(n, orthotrees.DefaultConfig(n*n*n))
		if err != nil {
			return nil, err
		}
		a := rng.BoolMatrix(n, 0.4)
		c, t := m3.MatMul(a, rng.BoolMatrix(n, 0.4), true, 0)
		say("3D mesh-of-trees Boolean %d×%d product: %d ones\n", n, n, ones(c))
		elapsed, area = t, m3.Area()
	}
	return spec.Report(elapsed, area, m)
}

// sideOf is the side of the k×k machine a size-n bitonic sort or DFT
// runs on.
func sideOf(n int) (int, error) {
	k := int(math.Sqrt(float64(n)))
	if k < 1 || k*k != n || k&(k-1) != 0 {
		return 0, fmt.Errorf("size %d is not an even power of two", n)
	}
	return k, nil
}

// ones counts the set entries of a 0/1 matrix.
func ones(c [][]int64) int {
	n := 0
	for i := range c {
		for j := range c[i] {
			n += int(c[i][j])
		}
	}
	return n
}
