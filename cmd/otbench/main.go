// Command otbench regenerates the evaluation of Nath, Maheshwari and
// Bhatt's orthogonal-trees paper: Tables I–IV, the MST prose claims,
// the layout-area comparison behind Figs. 1–3, and the Section VIII
// pipelining measurement, plus the robustness, packed-engine and
// incremental-labeling studies. Each artefact prints the measured
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
// than double, each host-ratio floor (packed vs scalar components,
// incremental batch vs recompute) must hold, and per-entry ns/op is
// reported but gates only under -hosttol.
//
// Usage:
//
//	otbench                        # every artefact, default sweep sizes
//	otbench -table 3               # just Table III
//	otbench -table 1,3,mst,faults  # a comma list of artefacts
//	otbench -table 3 -sizes 16,64  # override the sweep
//	otbench -table packed          # Table III on the packed engine, out to N=1024
//	otbench -table incremental     # streamed labeling: incremental vs full recompute
//	otbench -table recovery        # mid-run arrivals + checkpoint/rollback costs
//	otbench -json BENCH.json       # run the bench suite, write the baseline
//	otbench -compare BENCH.json    # re-run, diff against baseline
//	otbench -json new.json -compare BENCH.json
//	otbench -compare BENCH.json -hosttol 30   # also gate ns/op regressions >30%
//	otbench -cpuprofile cpu.pprof -json /dev/null
//
// The artefact names are 1, 2, 3, 4, mst, figs, mot3d, faults,
// recovery, pipeline, packed and incremental; "all" (the default)
// runs them in that order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
	table := flag.String("table", "all", "comma-separated artefacts to regenerate (1,2,3,4,mst,figs,mot3d,faults,recovery,pipeline,packed,incremental) or all")
	sizes := flag.String("sizes", "", "comma-separated problem sizes (defaults per artefact)")
	format := flag.String("format", "text", "output format: text | markdown")
	jsonOut := flag.String("json", "", "run the benchmark suite and write results to this file")
	compare := flag.String("compare", "", "run the benchmark suite and diff against this baseline file")
	hosttol := flag.Float64("hosttol", 0, "percentage tolerance on ns/op regressions in -compare; 0 keeps host times info-only")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	sel, err := parseTable(*table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "otbench: %v\n", err)
		os.Exit(2)
	}
	ns := parseSizes(*sizes)

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
	if *jsonOut != "" || *compare != "" {
		ok = benchMode(*jsonOut, *compare, *hosttol)
	} else {
		runTables(sel, ns, *format == "markdown")
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

// --- artefact regeneration ------------------------------------------

// rendering is what every study returns: a plain-text table and its
// markdown form.
type rendering interface {
	Render() string
	Markdown() string
}

// artefact is one output -table can name: its default sweep (nil for
// the studies that take no sizes) and the study that produces it.
type artefact struct {
	name  string
	sizes []int
	run   func(ns []int) (rendering, error)
}

// artefacts lists every output in the order "all" prints them.
var artefacts = []artefact{
	{"1", []int{16, 64, 256}, sweep(orthotrees.Table1)},
	{"2", []int{4, 8, 16}, sweep(orthotrees.Table2)},
	{"3", []int{16, 32, 64, 128}, sweep(orthotrees.Table3)},
	{"4", []int{16, 64, 256}, sweep(orthotrees.Table4)},
	{"mst", []int{8, 16, 32, 64}, sweep(orthotrees.MSTStudy)},
	{"figs", []int{16, 64, 256, 1024}, sweep(orthotrees.FigureAreas)},
	{"mot3d", []int{4, 8, 16}, sweep(orthotrees.MatMul3DStudy)},
	{"faults", nil, func([]int) (rendering, error) { return orthotrees.FaultSweepStudy(32, 4, 1983) }},
	{"recovery", nil, func([]int) (rendering, error) { return orthotrees.RecoverySweepStudy(16, 3, 1983) }},
	{"pipeline", nil, func([]int) (rendering, error) {
		latency, steady, err := orthotrees.PipelineStudy(64, 16)
		return text(fmt.Sprintf("§VIII pipelining (N=64, 16 batches): single-problem latency %d bit-times, steady-state output interval %d bit-times (%.1fx speedup)\n",
			latency, steady, float64(latency)/float64(steady))), err
	}},
	// Table III extended on the bit-packed Boolean engine, at sizes
	// the scalar machine cannot reach.
	{"packed", []int{16, 32, 64, 128, 256, 512, 1024}, sweep(orthotrees.PackedStudy)},
	// Streamed labeling, labels checked bit-identical to a full
	// recompute after every batch. Sizes must be perfect squares.
	{"incremental", incrementalSizes, func(ns []int) (rendering, error) {
		return orthotrees.IncrementalStudy(ns, incrementalBatches, 8, 1983)
	}},
}

func sweep(f func([]int) (*orthotrees.Experiment, error)) func([]int) (rendering, error) {
	return func(ns []int) (rendering, error) { return f(ns) }
}

// text is a one-line artefact, the same in both formats.
type text string

func (t text) Render() string   { return string(t) }
func (t text) Markdown() string { return string(t) }

// parseTable resolves a -table value to the artefacts it names, in
// the order "all" prints them.
func parseTable(s string) ([]artefact, error) {
	if s == "all" {
		return artefacts, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var sel []artefact
	var names []string
	for _, a := range artefacts {
		if want[a.name] {
			sel = append(sel, a)
			delete(want, a.name)
		}
		names = append(names, a.name)
	}
	for name := range want {
		return nil, fmt.Errorf("unknown artefact %q in -table (want all or a comma list of %s)",
			name, strings.Join(names, ","))
	}
	return sel, nil
}

// runTables prints each selected artefact, over ns when -sizes set it
// and over the artefact's own sweep otherwise.
func runTables(sel []artefact, ns []int, markdown bool) {
	for _, a := range sel {
		sizes := a.sizes
		if ns != nil {
			sizes = ns
		}
		r, err := a.run(sizes)
		if err != nil {
			fatalf("-table %s: %v", a.name, err)
		}
		if markdown {
			fmt.Println(r.Markdown())
		} else {
			fmt.Println(r.Render())
		}
	}
}

// parseSizes parses -sizes, nil when it is empty; a bad size exits 2.
func parseSizes(s string) []int {
	if s == "" {
		return nil
	}
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
		// contract); its ns/op is the slow side of the ≥4× floor in
		// hostFloors.
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
	if f.PeakRSSKB > 0 {
		fmt.Fprintf(os.Stderr, "otbench: peak RSS %d KiB\n", f.PeakRSSKB)
	}
	return f
}

// hostFloor is one -compare host-ratio gate: on the current run, the
// slow entry's ns/op over the fast entry's ns per operation must be
// at least min. The two entries record equal simulated work, so the
// ratio is a speedup of one engine over another on the same instance.
type hostFloor struct {
	what       string
	slow, fast string
	// fastOps is how many of the compared operations one op of the
	// fast entry performs.
	fastOps int64
	min     float64
}

var hostFloors = []hostFloor{
	// The packed engine against the scalar machine program on the
	// same graph (DESIGN.md §13).
	{"packed vs scalar components at N=256",
		"ScalarComponents/n=256", "PackedComponents/n=256", 1, 4},
	// A single-pixel incremental batch against a full recompute of the
	// same grid. One IncrementalComponents op is the forward batch
	// plus its inverse, so two batches.
	{"single-flip incremental batch vs recompute at N=1024",
		"RecomputeComponents/n=1024", "IncrementalComponents/n=1024/b=1", 2, 10},
}

// ratio is h's speedup on f, 0 when either entry is missing.
func (h hostFloor) ratio(f BenchFile) float64 {
	var slow, fast int64
	for _, b := range f.Benchmarks {
		switch b.Name {
		case h.slow:
			slow = b.NsPerOp
		case h.fast:
			fast = b.NsPerOp
		}
	}
	if slow <= 0 || fast <= 0 {
		return 0
	}
	return float64(slow) * float64(h.fastOps) / float64(fast)
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

func benchMode(jsonOut, compare string, hostTol float64) bool {
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
	return diff(base, cur, hostTol, os.Stderr)
}

// diff reports cur against base on w. Simulated metrics must match
// exactly; allocs/op and bytes/op may not regress beyond their slack,
// whole-run peak RSS may not exceed rssSlackFactor times the
// baseline's, and the current run must hold every hostFloors ratio;
// per-entry ns/op is printed as a delta but fails the comparison only
// when hostTol (the -hosttol percentage) is positive. The suites must
// also agree as sets: a benchmark present on either side only is a
// FAIL, so the committed baseline always covers the whole suite.
func diff(base, cur BenchFile, hostTol float64, w io.Writer) bool {
	curByName := map[string]BenchResult{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	ok := true
	for _, old := range base.Benchmarks {
		now, found := curByName[old.Name]
		if !found {
			fmt.Fprintf(w, "FAIL %s: benchmark missing from current run\n", old.Name)
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
				fmt.Fprintf(w, "FAIL %s: simulated metric %q missing\n", old.Name, k)
				ok = false
			} else if got != want {
				fmt.Fprintf(w, "FAIL %s: simulated %q = %v, baseline %v\n", old.Name, k, got, want)
				ok = false
			}
		}
		limit := int64(float64(old.AllocsPerOp)*allocSlackRatio) + allocSlackAbs
		if now.AllocsPerOp > limit {
			fmt.Fprintf(w, "FAIL %s: allocs/op %d exceeds baseline %d (limit %d)\n",
				old.Name, now.AllocsPerOp, old.AllocsPerOp, limit)
			ok = false
		}
		blimit := int64(float64(old.BytesPerOp)*bytesSlackRatio) + bytesSlackAbs
		if now.BytesPerOp > blimit {
			fmt.Fprintf(w, "FAIL %s: bytes/op %d exceeds baseline %d (limit %d)\n",
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
		if hostTol > 0 {
			gate = fmt.Sprintf("tol %+.1f%%", hostTol)
			if !math.IsNaN(dns) && dns > hostTol {
				fmt.Fprintf(w, "FAIL %s: ns/op %d is %+.1f%% vs baseline %d, over -hosttol %.1f%%\n",
					old.Name, now.NsPerOp, dns, old.NsPerOp, hostTol)
				ok = false
			}
		}
		fmt.Fprintf(w, "ok   %-24s ns/op %s (%s)  allocs/op %s (%d vs %d)  B/op %s\n",
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
		fmt.Fprintf(w, "FAIL %s: benchmark missing from baseline (regenerate with -json)\n", name)
		ok = false
	}
	for _, h := range hostFloors {
		if r := h.ratio(cur); r < h.min {
			fmt.Fprintf(w, "FAIL %s: %.2fx host speedup, below %gx\n", h.what, r, h.min)
			ok = false
		} else {
			fmt.Fprintf(w, "ok   %s: %.1fx host speedup (floor %gx)\n", h.what, r, h.min)
		}
	}
	if base.PeakRSSKB > 0 && cur.PeakRSSKB > 0 {
		if cur.PeakRSSKB > rssSlackFactor*base.PeakRSSKB {
			fmt.Fprintf(w, "FAIL peak RSS %d KiB is more than %dx baseline %d KiB\n",
				cur.PeakRSSKB, rssSlackFactor, base.PeakRSSKB)
			ok = false
		} else {
			fmt.Fprintf(w, "ok   peak RSS %d KiB vs baseline %d KiB (limit %dx)\n",
				cur.PeakRSSKB, base.PeakRSSKB, rssSlackFactor)
		}
	}
	if ok {
		fmt.Fprintln(w, "otbench: comparison PASSED")
	} else {
		fmt.Fprintln(w, "otbench: comparison FAILED")
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
