// Command otbench regenerates the evaluation of Nath, Maheshwari and
// Bhatt's orthogonal-trees paper: Tables I–IV, the MST prose claims,
// the layout-area comparison behind Figs. 1–3, and the Section VIII
// pipelining measurement. Each artefact prints the measured
// (simulated) area, time and A·T² next to the paper's asymptotic
// claims, plus log-log growth fits across the sweep.
//
// It doubles as the repository's benchmark-regression harness: -json
// runs a fixed suite of host benchmarks (wall-clock ns/op, allocs/op,
// bytes/op) that each also record the simulated quantities they
// produce (bit-times, λ² area), and writes them to a machine-readable
// file. -compare checks a fresh run against a committed baseline:
// simulated quantities must match EXACTLY (they are outputs of the
// paper's model, not of the host), allocs/op and bytes/op may not
// regress beyond a small tolerance, whole-run peak RSS may not more
// than double, and ns/op is reported but never gates (it depends
// on the host).
//
// Usage:
//
//	otbench                   # everything, default sweep sizes
//	otbench -table 3          # just Table III
//	otbench -sizes 16,64,256  # override the sweep
//	otbench -faultsweep       # robustness: slowdown vs injected faults
//	otbench -recoverysweep    # robustness: mid-run arrivals + checkpoint/rollback costs
//	otbench -json BENCH.json  # run the bench suite, write the baseline
//	otbench -compare BENCH.json          # re-run, diff against baseline
//	otbench -json new.json -compare BENCH.json
//	otbench -packed           # packed-engine scaling: Table III out to N=1024
//	otbench -incremental      # streamed labeling: incremental vs full recompute
//	otbench -compare BENCH.json -hosttol 30   # also gate ns/op regressions >30%
//	otbench -cpuprofile cpu.pprof -json /dev/null
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"

	orthotrees "repro"
	"repro/internal/core"
	"repro/internal/packed"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (1-4); 0 = all artefacts")
	sizes := flag.String("sizes", "", "comma-separated problem sizes (defaults per table)")
	mst := flag.Bool("mst", false, "also run the MST study (implied by -table 0)")
	figs := flag.Bool("figs", false, "also run the Figs. 1-3 area sweep (implied by -table 0)")
	pipeline := flag.Bool("pipeline", false, "also run the §VIII pipelining study (implied by -table 0)")
	mot3d := flag.Bool("mot3d", false, "also run the §VII-B 3D mesh-of-trees comparison")
	faultsweep := flag.Bool("faultsweep", false, "also run the fault sweep (implied by -table 0)")
	recoverysweep := flag.Bool("recoverysweep", false, "also run the mid-run-arrival recovery sweep (implied by -table 0)")
	format := flag.String("format", "text", "output format: text | markdown")
	jsonOut := flag.String("json", "", "run the benchmark suite and write results to this file")
	compare := flag.String("compare", "", "run the benchmark suite and diff against this baseline file")
	packedSweep := flag.Bool("packed", false, "run the packed-engine scaling study (Table III extended to N=1024) and print the table")
	incremental := flag.Bool("incremental", false, "run the incremental streaming-labeling study and the incremental-vs-recompute host-cost table")
	servesweep := flag.Bool("servesweep", false, "drive an in-process otserve at three offered-load levels and print the degradation table, then the compute-once (result cache on vs off) zipf sweep")
	cachejson := flag.String("cachejson", "", "servesweep: also write the compute-once sweep snapshot to this file (e.g. BENCH_PR10.json)")
	hosttol := flag.Float64("hosttol", 0, "percentage tolerance on ns/op regressions in -compare; 0 keeps host times info-only")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	hostTolPct = *hosttol

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	ok := true
	if *servesweep {
		ok = servesweepMode(*cachejson)
	} else if *packedSweep {
		packedMode(*sizes, *format)
	} else if *incremental {
		ok = incrementalMode(*sizes, *format)
	} else if *jsonOut != "" || *compare != "" {
		ok = benchMode(*jsonOut, *compare)
	} else {
		runTables(*table, *sizes, *mst, *figs, *pipeline, *mot3d, *faultsweep, *recoverysweep, *format)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "otbench: "+format+"\n", args...)
	os.Exit(1)
}

// --- table regeneration (the original otbench) ----------------------

func runTables(table int, sizes string, mst, figs, pipeline, mot3d, faultsweep, recoverysweep bool, format string) {
	all := table == 0
	run := func(name string, def []int, f func([]int) (*orthotrees.Experiment, error)) {
		ns := def
		if sizes != "" {
			ns = parseSizes(sizes)
		}
		e, err := f(ns)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if format == "markdown" {
			fmt.Println(e.Markdown())
		} else {
			fmt.Println(e.Render())
		}
	}

	if all || table == 1 {
		run("Table I", []int{16, 64, 256}, orthotrees.Table1)
	}
	if all || table == 2 {
		run("Table II", []int{4, 8, 16}, orthotrees.Table2)
	}
	if all || table == 3 {
		run("Table III", []int{16, 32, 64, 128}, orthotrees.Table3)
	}
	if all || table == 4 {
		run("Table IV", []int{16, 64, 256}, orthotrees.Table4)
	}
	if all || mst {
		run("MST", []int{8, 16, 32, 64}, orthotrees.MSTStudy)
	}
	if all || figs {
		run("Figs. 1-3", []int{16, 64, 256, 1024}, orthotrees.FigureAreas)
	}
	if all || mot3d {
		run("3D mesh of trees", []int{4, 8, 16}, orthotrees.MatMul3DStudy)
	}
	if all || faultsweep {
		s, err := orthotrees.FaultSweepStudy(32, 4, 1983)
		if err != nil {
			fatalf("fault sweep: %v", err)
		}
		if format == "markdown" {
			fmt.Println(s.Markdown())
		} else {
			fmt.Println(s.Render())
		}
	}
	if all || recoverysweep {
		s, err := orthotrees.RecoverySweepStudy(16, 3, 1983)
		if err != nil {
			fatalf("recovery sweep: %v", err)
		}
		if format == "markdown" {
			fmt.Println(s.Markdown())
		} else {
			fmt.Println(s.Render())
		}
	}
	if all || pipeline {
		latency, steady, err := orthotrees.PipelineStudy(64, 16)
		if err != nil {
			fatalf("pipeline: %v", err)
		}
		fmt.Printf("§VIII pipelining (N=64, 16 batches): single-problem latency %d bit-times, steady-state output interval %d bit-times (%.1fx speedup)\n\n",
			latency, steady, float64(latency)/float64(steady))
	}
}

// packedMode is -packed: the extended Table III sweep on the
// bit-packed Boolean engine, at sizes the scalar machine cannot
// reach. The full default sweep — engine builds included — finishes
// in seconds; see `make benchpacked`.
func packedMode(sizes, format string) {
	ns := []int{16, 32, 64, 128, 256, 512, 1024}
	if sizes != "" {
		ns = parseSizes(sizes)
	}
	e, err := orthotrees.PackedStudy(ns)
	if err != nil {
		fatalf("packed study: %v", err)
	}
	if format == "markdown" {
		fmt.Println(e.Markdown())
	} else {
		fmt.Println(e.Render())
	}
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "otbench: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// --- benchmark-regression harness -----------------------------------

// BenchResult is one suite entry: the host-side cost of the benchmark
// body plus the simulated quantities it computed. The two halves gate
// differently in a comparison — simulated values are exact, host
// values are environmental.
type BenchResult struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Simulated holds model outputs (bit-times, λ² area) keyed by
	// metric name. All are integer-valued; -compare requires exact
	// equality.
	Simulated map[string]float64 `json:"simulated,omitempty"`
}

// BenchFile is the on-disk schema of BENCH.json.
type BenchFile struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	MaxProcs  int    `json:"maxprocs"`
	// PeakRSSKB is the process high-water resident set (VmHWM) after
	// the whole suite ran, in KiB; 0 where procfs is unavailable.
	// -compare fails when it more than doubles over the baseline —
	// the coarse backstop that catches a machine or engine cache
	// leak that per-op allocation accounting cannot see.
	PeakRSSKB  int64         `json:"peak_rss_kb,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// hostTolPct is the -hosttol value: when positive, a ns/op regression
// beyond this percentage over the baseline fails -compare. At zero
// (the default) host times stay informational, because they depend on
// the machine running the comparison.
var hostTolPct float64

// simMap collects the simulated metrics a benchmark body produces.
// Bodies overwrite the same keys every b.N loop, so the recorded
// values are those of the final iteration — which determinism
// guarantees equal those of every iteration.
type simMap map[string]float64

func (s simMap) rows(e *orthotrees.Experiment) {
	for _, r := range e.Rows {
		s[fmt.Sprintf("%s/N=%d/bit-times", r.Network, r.N)] = float64(r.Time)
		s[fmt.Sprintf("%s/N=%d/area", r.Network, r.N)] = float64(r.Area)
	}
}

// suite is the fixed benchmark set. Table sweeps exercise the full
// stack (machine + analysis, including the host-parallel cells);
// the micro entries pin the allocation behaviour of the hot router
// and primitive paths that PR 2 flattened.
type suiteDef struct {
	name string
	run  func(b *testing.B, sim simMap)
}

var suite = []suiteDef{
	{"Table1Sort/n=64", func(b *testing.B, sim simMap) {
		var e *orthotrees.Experiment
		var err error
		for i := 0; i < b.N; i++ {
			if e, err = orthotrees.Table1([]int{64}); err != nil {
				b.Fatal(err)
			}
		}
		sim.rows(e)
	}},
	{"Table3Components/n=64", func(b *testing.B, sim simMap) {
		var e *orthotrees.Experiment
		var err error
		for i := 0; i < b.N; i++ {
			if e, err = orthotrees.Table3([]int{64}); err != nil {
				b.Fatal(err)
			}
		}
		sim.rows(e)
	}},
	{"SortOTN/n=64", func(b *testing.B, sim simMap) {
		m, err := orthotrees.NewOTN(64)
		if err != nil {
			b.Fatal(err)
		}
		xs := orthotrees.NewRNG(11).Perm(64)
		var done orthotrees.Time
		timed(b, func() {
			m.Reset()
			_, done = orthotrees.Sort(m, xs)
		})
		sim["sort/bit-times"] = float64(done)
		sim["sort/area"] = float64(m.Area())
	}},
	{"TreeBroadcast/K=64", func(b *testing.B, sim simMap) {
		m, err := orthotrees.NewOTN(64)
		if err != nil {
			b.Fatal(err)
		}
		r := m.Router(orthotrees.Vector{IsRow: true})
		var done orthotrees.Time
		timed(b, func() {
			r.Reset()
			_, done = r.Broadcast(0)
		})
		sim["broadcast/bit-times"] = float64(done)
	}},
	{"TreeReduce/K=64", func(b *testing.B, sim simMap) {
		m, err := orthotrees.NewOTN(64)
		if err != nil {
			b.Fatal(err)
		}
		r := m.Router(orthotrees.Vector{IsRow: true})
		var done orthotrees.Time
		timed(b, func() {
			r.Reset()
			done = r.ReduceUniform(0)
		})
		sim["reduce/bit-times"] = float64(done)
	}},
	{"TreeRoute/K=64", func(b *testing.B, sim simMap) {
		m, err := orthotrees.NewOTN(64)
		if err != nil {
			b.Fatal(err)
		}
		r := m.Router(orthotrees.Vector{IsRow: true})
		src, dst := r.Leaf(0), r.Leaf(63)
		var done orthotrees.Time
		timed(b, func() {
			r.Reset()
			done = r.Route(src, dst, 0)
		})
		sim["route/bit-times"] = float64(done)
	}},
	{"LeafToLeaf/K=64", func(b *testing.B, sim simMap) {
		m, err := orthotrees.NewOTN(64)
		if err != nil {
			b.Fatal(err)
		}
		vec := orthotrees.Vector{IsRow: true}
		m.Set(orthotrees.RegA, 0, 5, 42)
		var done orthotrees.Time
		timed(b, func() {
			m.Reset()
			done = m.LeafToLeaf(vec, core.One(5), orthotrees.RegA, core.All, orthotrees.RegB, 0)
		})
		sim["leaftoleaf/bit-times"] = float64(done)
	}},
	{"PackedComponents/n=256", packedComponentsBench(256)},
	{"PackedComponents/n=1024", packedComponentsBench(1024)},
	{"PackedClosure/n=256", packedClosureBench(256)},
	{"PackedClosure/n=1024", packedClosureBench(1024)},
	{"ScalarComponents/n=256", func(b *testing.B, sim simMap) {
		// The scalar counterpart of PackedComponents/n=256: the same
		// graph through the full machine program. Its simulated
		// metrics must equal the packed entry's exactly (the tentpole
		// contract); its ns/op is the scalar side of packedSpeedup,
		// which -compare gates.
		m, err := orthotrees.NewOTN(256)
		if err != nil {
			b.Fatal(err)
		}
		g := benchGraph(256)
		var done orthotrees.Time
		timed(b, func() {
			m.Reset()
			orthotrees.LoadGraph(m, g)
			_, done = orthotrees.ConnectedComponents(m)
		})
		if err := m.Err(); err != nil {
			b.Fatal(err)
		}
		sim["components/bit-times"] = float64(done)
		sim["components/area"] = float64(m.Area())
	}},
	{"ParDoSweep/K=64", func(b *testing.B, sim simMap) {
		m, err := orthotrees.NewOTN(64)
		if err != nil {
			b.Fatal(err)
		}
		sel := core.One(5)
		var done orthotrees.Time
		timed(b, func() {
			m.Reset()
			done = m.ParDo(true, 0, func(vec orthotrees.Vector, rel orthotrees.Time) orthotrees.Time {
				return m.LeafToRoot(vec, sel, orthotrees.RegA, rel)
			})
		})
		if err := m.Err(); err != nil {
			b.Fatal(err)
		}
		sim["pardo/bit-times"] = float64(done)
	}},
}

// benchGraph is the deterministic sparse instance shared by the
// packed and scalar component entries at a given size, so their
// simulated bit-times are directly comparable (and must be equal).
func benchGraph(n int) *orthotrees.Graph {
	return orthotrees.NewRNG(uint64(7+n)).Gnp(n, 2.0/float64(n))
}

// packedComponentsBench measures the machine-free bit-packed engine
// on CONNECTED-COMPONENTS over an already packed adjacency: the call
// a served cc job makes on the matrix GnpBits draws. The graph is
// packed once, outside the timed loop.
func packedComponentsBench(n int) func(b *testing.B, sim simMap) {
	return func(b *testing.B, sim simMap) {
		e, err := packed.EngineFor(n, orthotrees.DefaultConfig(n*n), false)
		if err != nil {
			b.Fatal(err)
		}
		adj := packed.PackGraph(benchGraph(n))
		var done orthotrees.Time
		timed(b, func() { _, done = e.ComponentsPacked(adj, 0) })
		sim["components/bit-times"] = float64(done)
		sim["components/area"] = float64(e.Area())
	}
}

// packedClosureBench measures the packed engine on CLOSURE-OTN.
func packedClosureBench(n int) func(b *testing.B, sim simMap) {
	return func(b *testing.B, sim simMap) {
		e, err := packed.EngineFor(n, orthotrees.DefaultConfig(n*n), false)
		if err != nil {
			b.Fatal(err)
		}
		g := benchGraph(n)
		var done orthotrees.Time
		timed(b, func() { _, done = e.Closure(g, 0) })
		sim["closure/bit-times"] = float64(done)
		sim["closure/area"] = float64(e.Area())
	}
}

// timed runs op once untimed, then b.N times under the timer. Entries
// that build their machine or engine before the loop use it: the
// untimed pass takes first-use work (register-bank growth, route-plan
// recording) out of the per-op figures, which would otherwise be
// amortised over a b.N that depends on host speed.
func timed(b *testing.B, op func()) {
	op()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// measure runs one benchmark body under testing.Benchmark.
func measure(name string, run func(b *testing.B, sim simMap)) BenchResult {
	sim := simMap{}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		run(b, sim)
	})
	res := BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Simulated:   sim,
	}
	fmt.Fprintf(os.Stderr, "otbench: %-24s %12d ns/op %8d allocs/op %10d B/op\n",
		name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	return res
}

// runSuite executes every suite entry under testing.Benchmark with
// allocation tracking and returns the populated file.
func runSuite() BenchFile {
	f := BenchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	for _, def := range suite {
		f.Benchmarks = append(f.Benchmarks, measure(def.name, def.run))
	}
	f.PeakRSSKB = peakRSSKB()
	if sp := packedSpeedup(f); sp > 0 {
		fmt.Fprintf(os.Stderr, "otbench: packed vs scalar components at N=256: %.1fx host speedup\n", sp)
	}
	if f.PeakRSSKB > 0 {
		fmt.Fprintf(os.Stderr, "otbench: peak RSS %d KiB\n", f.PeakRSSKB)
	}
	return f
}

// minPackedSpeedup is the -compare floor on packedSpeedup: the packed
// engine must stay at least this many times faster than the scalar
// machine program on the same instance (DESIGN.md §13).
const minPackedSpeedup = 4

// packedSpeedup is the packed engine's headline number: the host-time
// speedup of PackedComponents/n=256 over ScalarComponents/n=256, whose
// simulated bit-times are equal. It is 0 when either entry is missing.
func packedSpeedup(f BenchFile) float64 {
	var sc, pk int64
	for _, b := range f.Benchmarks {
		switch b.Name {
		case "ScalarComponents/n=256":
			sc = b.NsPerOp
		case "PackedComponents/n=256":
			pk = b.NsPerOp
		}
	}
	if sc <= 0 || pk <= 0 {
		return 0
	}
	return float64(sc) / float64(pk)
}

// peakRSSKB reads the process's high-water resident set from
// /proc/self/status (VmHWM, in KiB). Returns 0 on hosts without
// procfs; the -compare RSS gate is skipped when either side is 0.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseInt(fields[0], 10, 64)
				if err == nil {
					return kb
				}
			}
		}
	}
	return 0
}

// allocSlack is the -compare tolerance on allocs/op: small counts
// jitter with GC timing and testing.Benchmark's chosen b.N, so a
// regression must clear both a relative and an absolute bar to fail
// the gate.
const (
	allocSlackRatio = 1.25
	allocSlackAbs   = 16
)

// bytesSlack mirrors allocSlack for bytes/op: heap growth per op is a
// memory regression even when the allocation count holds steady (a
// bank or slab doubling in width). The absolute floor absorbs the
// jitter of tiny entries.
const (
	bytesSlackRatio = 1.25
	bytesSlackAbs   = 4096
)

// rssSlackFactor is the -compare tolerance on whole-run peak RSS.
// RSS is process-monotone and shaped by GC pacing, so the gate is
// deliberately coarse: only a doubling fails.
const rssSlackFactor = 2

func benchMode(jsonOut, compare string) bool {
	cur := runSuite()
	if jsonOut != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatalf("json: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			fatalf("json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "otbench: wrote %d benchmarks to %s\n", len(cur.Benchmarks), jsonOut)
	}
	if compare == "" {
		return true
	}
	data, err := os.ReadFile(compare)
	if err != nil {
		fatalf("compare: %v", err)
	}
	var base BenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("compare: %s: %v", compare, err)
	}
	return diff(base, cur)
}

// diff reports cur against base. Simulated metrics must match
// exactly; allocs/op and bytes/op may not regress beyond their slack,
// whole-run peak RSS may not exceed rssSlackFactor times the
// baseline's, and the current run's packedSpeedup may not fall below
// minPackedSpeedup; per-entry ns/op is printed as a ratio but fails
// the comparison only under -hosttol. The suites must
// also agree as sets: a benchmark present on either side only is a
// FAIL, so the committed baseline always covers the whole suite.
func diff(base, cur BenchFile) bool {
	curByName := map[string]BenchResult{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	ok := true
	for _, old := range base.Benchmarks {
		now, found := curByName[old.Name]
		if !found {
			fmt.Fprintf(os.Stderr, "FAIL %s: benchmark missing from current run\n", old.Name)
			ok = false
			continue
		}
		delete(curByName, old.Name)
		// Simulated quantities are model outputs: any drift is a
		// correctness bug, not a performance change.
		keys := make([]string, 0, len(old.Simulated))
		for k := range old.Simulated {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			want := old.Simulated[k]
			got, has := now.Simulated[k]
			if !has {
				fmt.Fprintf(os.Stderr, "FAIL %s: simulated metric %q missing\n", old.Name, k)
				ok = false
			} else if got != want {
				fmt.Fprintf(os.Stderr, "FAIL %s: simulated %q = %v, baseline %v\n", old.Name, k, got, want)
				ok = false
			}
		}
		limit := int64(float64(old.AllocsPerOp)*allocSlackRatio) + allocSlackAbs
		if now.AllocsPerOp > limit {
			fmt.Fprintf(os.Stderr, "FAIL %s: allocs/op %d exceeds baseline %d (limit %d)\n",
				old.Name, now.AllocsPerOp, old.AllocsPerOp, limit)
			ok = false
		}
		blimit := int64(float64(old.BytesPerOp)*bytesSlackRatio) + bytesSlackAbs
		if now.BytesPerOp > blimit {
			fmt.Fprintf(os.Stderr, "FAIL %s: bytes/op %d exceeds baseline %d (limit %d)\n",
				old.Name, now.BytesPerOp, old.BytesPerOp, blimit)
			ok = false
		}
		// Host metrics, reported as relative deltas per metric. ns/op
		// gates only when -hosttol sets a tolerance; allocs and bytes
		// always print so a drift is visible before it trips the slack.
		dns := relDelta(now.NsPerOp, old.NsPerOp)
		dal := relDelta(now.AllocsPerOp, old.AllocsPerOp)
		dby := relDelta(now.BytesPerOp, old.BytesPerOp)
		gate := "info only"
		if hostTolPct > 0 {
			gate = fmt.Sprintf("tol %+.1f%%", hostTolPct)
			if !math.IsNaN(dns) && dns > hostTolPct {
				fmt.Fprintf(os.Stderr, "FAIL %s: ns/op %d is %+.1f%% vs baseline %d, over -hosttol %.1f%%\n",
					old.Name, now.NsPerOp, dns, old.NsPerOp, hostTolPct)
				ok = false
			}
		}
		fmt.Fprintf(os.Stderr, "ok   %-24s ns/op %s (%s)  allocs/op %s (%d vs %d)  B/op %s\n",
			old.Name, fmtDelta(dns), gate, fmtDelta(dal), now.AllocsPerOp, old.AllocsPerOp, fmtDelta(dby))
	}
	// A benchmark the baseline has never seen is as much a gap in the
	// regression gate as a vanished one: its simulated quantities are
	// not pinned by anything. Fail until the baseline is regenerated.
	extra := make([]string, 0, len(curByName))
	for name := range curByName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(os.Stderr, "FAIL %s: benchmark missing from baseline (regenerate with -json)\n", name)
		ok = false
	}
	if sp := packedSpeedup(cur); sp < minPackedSpeedup {
		fmt.Fprintf(os.Stderr, "FAIL packed vs scalar components at N=256: %.1fx host speedup, below %dx\n",
			sp, minPackedSpeedup)
		ok = false
	} else {
		fmt.Fprintf(os.Stderr, "ok   packed vs scalar components at N=256: %.1fx host speedup (floor %dx)\n",
			sp, minPackedSpeedup)
	}
	if base.PeakRSSKB > 0 && cur.PeakRSSKB > 0 {
		if cur.PeakRSSKB > rssSlackFactor*base.PeakRSSKB {
			fmt.Fprintf(os.Stderr, "FAIL peak RSS %d KiB is more than %dx baseline %d KiB\n",
				cur.PeakRSSKB, rssSlackFactor, base.PeakRSSKB)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "ok   peak RSS %d KiB vs baseline %d KiB (limit %dx)\n",
				cur.PeakRSSKB, base.PeakRSSKB, rssSlackFactor)
		}
	}
	if ok {
		fmt.Fprintln(os.Stderr, "otbench: comparison PASSED")
	} else {
		fmt.Fprintln(os.Stderr, "otbench: comparison FAILED")
	}
	return ok
}

// relDelta is the signed percentage change of now over base, NaN when
// the baseline is zero.
func relDelta(now, base int64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * float64(now-base) / float64(base)
}

// fmtDelta renders a relDelta for the report, with zero-baseline
// metrics shown as n/a rather than NaN.
func fmtDelta(d float64) string {
	if math.IsNaN(d) {
		return "    n/a "
	}
	return fmt.Sprintf("%+7.1f%%", d)
}
