// Command bench is the served-path benchmark: it builds cmd/otserve,
// drives it closed-loop from this one process with four workloads, and
// reports what a user of the service sees (set-up time, goodput,
// latency, server CPU and memory) plus per-layer readings from the
// server's /metrics counters and from a traced in-process replay that
// doubles as the correctness oracle. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -seed 1 -out /tmp/b            # all workloads, one run each
//	bash bench/run.sh -workload jobs_zipf -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl       # apply BENCHMARK.json bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

var workloadNames = []string{"jobs_engine", "jobs_zipf", "jobs_bulk", "sessions_durable"}

var newWorkload = map[string]func(*runner) scenario{
	"jobs_engine":      newEngine,
	"jobs_zipf":        newZipf,
	"jobs_bulk":        newBulk,
	"sessions_durable": newSessions,
}

// runner holds one workload run's settings and shared state.
type runner struct {
	ctx      context.Context
	name     string
	seed     uint64
	clients  int // closed-loop clients, connections, server workers
	window   time.Duration
	bin      string // otserve
	out      string
	seq      atomic.Int64 // next operation index
	winStart int64        // index of the window's first operation
	prep     tally        // set-up and preparation traffic, its replies kept for the replay
}

func (r *runner) start(args ...string) (*serverProc, error) {
	rate := strconv.FormatFloat(serverRate, 'f', -1, 64)
	base := []string{"-workers", strconv.Itoa(r.clients), "-queue", strconv.Itoa(serverQueue), "-rate", rate, "-burst", rate}
	return startServer(r.ctx, r.bin, filepath.Join(r.out, "otserve-"+r.name+".log"), append(base, args...))
}

// timeStarts starts otserve coldStarts times, a gap apart, and times
// each start from exec until /healthz answers and ready returns. The
// last server is left running.
func (r *runner) timeStarts(args []string, ready func(*client) error) (*serverProc, []time.Duration, error) {
	var times []time.Duration
	for {
		t0 := time.Now()
		p, err := r.start(args...)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(p.base, r.clients)
		err = c.healthy(r.ctx)
		if err == nil {
			err = ready(c)
		}
		d := time.Since(t0)
		c.close()
		if err != nil {
			p.kill()
			return nil, nil, err
		}
		times = append(times, d)
		if len(times) == coldStarts {
			return p, times, nil
		}
		p.kill()
		time.Sleep(coldStartGap)
	}
}

// keep records a successful set-up request for the replay to check.
func (r *runner) keep(o *op, body []byte) {
	r.prep.add(tally{attempted: int64(o.jobs), ok: int64(o.jobs), kept: []answer{{o, bytes.Clone(body)}}})
}

// header describes where a run was measured.
type header struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	JournalFS  string `json:"journal_fs"`
}

// runRecord is one workload run, one line of results.jsonl.
type runRecord struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Header         header             `json:"header"`
	Correct        bool               `json:"correct"`
	Attempted      int64              `json:"attempted"`
	Failed         int64              `json:"failed"`
	LatencySamples int                `json:"latency_samples"` // latencies of clean operations
	LatencyChunks  int                `json:"latency_chunks"`  // chunks of 1000 behind p99
	Slices         int                `json:"slices"`          // slices behind goodput, CPU and p50
	EndToEnd       map[string]float64 `json:"end_to_end"`
	PerLayer       map[string]float64 `json:"per_layer,omitempty"`
}

// run measures one workload: set-up, warm-up, the window, then the
// replay that checks the replies and, with spans, yields the trace.
func (r *runner) run(w scenario, spans bool) (*runRecord, error) {
	t0 := time.Now()
	defer func() { fmt.Fprintf(os.Stderr, "bench: %s: run took %.1fs\n", r.name, time.Since(t0).Seconds()) }()
	p, setups, err := w.setup(r)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer p.kill()
	c := newClient(p.base, r.clients)
	defer c.close()
	if err := w.prepare(r, c); err != nil {
		return nil, err
	}
	warm := phase(r.ctx, c, r.clients, until(time.Now().Add(warmup), w.next), w.judge,
		func(*op) bool { return w.stateful() })

	m0, err := c.metrics(r.ctx)
	if err != nil {
		return nil, err
	}
	r.winStart = r.seq.Load()
	keepTo := r.winStart + w.oracleOps()
	smp := startSampler(p)
	win := phase(r.ctx, c, r.clients, until(time.Now().Add(r.window), w.next), w.judge,
		func(o *op) bool { return o.idx < keepTo })
	samples, err := smp.finish()
	if err != nil {
		return nil, err
	}
	m1, err := c.metrics(r.ctx)
	if err != nil {
		return nil, err
	}
	p.kill()
	if r.ctx.Err() != nil {
		return nil, r.ctx.Err()
	}
	if win.ok == 0 {
		return nil, fmt.Errorf("no operation succeeded in the window (%d attempted)", win.attempted)
	}

	all := r.prep
	all.add(warm)
	all.add(win)
	kept := all.kept
	sort.Slice(kept, func(i, j int) bool { return kept[i].op.idx < kept[j].op.idx })
	off, err := w.replay(r, kept, false)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var winWrong, allWrong int64
	for idx, n := range off.wrong {
		allWrong += int64(n)
		if idx >= r.winStart {
			winWrong += int64(n)
		}
	}

	st := measure(win, samples)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	rec := &runRecord{
		Workload: r.name, Seed: r.seed, Seconds: r.window.Seconds(),
		Attempted:      all.attempted,
		Failed:         all.failed + all.wrong + allWrong,
		LatencySamples: st.samples, LatencyChunks: st.chunks, Slices: st.slices,
		EndToEnd: map[string]float64{
			"setup_s":              median(setupS),
			"goodput_ops_s":        st.goodput,
			"latency_p50_ms":       ms(st.p50),
			"latency_p99_ms":       ms(st.p99),
			"server_cpu_us_per_op": float64(st.cpuPerOp) / float64(time.Microsecond),
			"rss_mb":               st.rssMB,
			"fail_frac":            float64(win.failed+win.wrong+winWrong) / float64(win.attempted),
		},
		PerLayer: metricsDelta(m0, m1, win.ok, win.attempted),
	}
	rec.Correct = rec.Failed == 0
	if !spans {
		return rec, nil
	}

	// The traced pass runs between two untraced ones; the first warms
	// this process's own caches, the second is what the overhead is
	// measured against.
	on, err := w.replay(r, kept, true)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	again, err := w.replay(r, kept, false)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	stages, reqP50 := stageStats(on.tr.spans)
	for k, v := range stages {
		rec.PerLayer[k] = v
	}
	rec.PerLayer["server.transport_queue_ms"] = ms(st.p50) - ms(reqP50)
	if again.elapsed > 0 {
		rec.PerLayer["trace.overhead_frac"] = on.elapsed.Seconds()/again.elapsed.Seconds() - 1
	}
	for label, ns := range on.engineNS {
		if bt := on.bitTimes[label]; bt > 0 {
			rec.PerLayer["engine.host_ns_per_bit_time."+label] = float64(ns) / float64(bt)
		}
	}
	if err := writeTrace(filepath.Join(r.out, "trace-"+r.name+".json"), r.name, r.seed, on.tr.spans); err != nil {
		return nil, err
	}
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 0, "measured window per workload in seconds (0 = run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 1, "1: also run the traced replay and report per-layer metrics")
	root := flag.String("root", "..", "repository root")
	build := flag.String("build", "", "build directory (default <root>/.bench_build)")
	out := flag.String("out", "", "output directory (default <build>/out)")
	cmp := flag.Bool("compare", false, "compare two results files: -compare a.jsonl b.jsonl")
	flag.Parse()

	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		ok, err := compare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := workloadNames
	if *workloadFlag != "all" {
		if newWorkload[*workloadFlag] == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		names = []string{*workloadFlag}
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *build == "" {
		*build = filepath.Join(*root, ".bench_build")
	}
	if *out == "" {
		*out = filepath.Join(*build, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	bin := filepath.Join(*build, "otserve")
	gobuild := exec.Command("go", "build", "-o", bin, "./cmd/otserve")
	gobuild.Dir, gobuild.Stdout, gobuild.Stderr = *root, os.Stderr, os.Stderr
	if err := gobuild.Run(); err != nil {
		fatal(fmt.Errorf("build otserve: %w", err))
	}

	hdr := header{Go: runtime.Version(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(*root), JournalFS: fsType(*out)}
	hb, _ := json.Marshal(hdr)
	fmt.Fprintf(os.Stderr, "bench: %s\n", hb)

	results, err := os.OpenFile(filepath.Join(*out, "results.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal(err)
	}
	defer results.Close()
	correct := true
	var last *runRecord
	for _, name := range names {
		window := time.Duration(*seconds) * time.Second
		ctx, cancel := context.WithTimeout(context.Background(), window+150*time.Second)
		r := &runner{ctx: ctx, name: name, seed: *seed, clients: nproc, window: window, bin: bin, out: *out}
		rec, err := r.run(newWorkload[name](r), *trace == 1)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rec.Header = hdr
		line, _ := json.Marshal(rec)
		if _, err := fmt.Fprintf(results, "%s\n", line); err != nil {
			fatal(err)
		}
		printRecord(os.Stdout, spec, rec)
		correct = correct && rec.Correct
		last = rec
	}
	if len(names) == 1 {
		printResult(spec, last, *trace == 1)
	}
	if !correct {
		os.Exit(1)
	}
}

// printResult prints the one-line JSON result: the end-to-end metrics,
// or with tracing the per-layer ones.
func printResult(spec *benchSpec, rec *runRecord, layers bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	list, values := spec.EndToEnd, rec.EndToEnd
	if layers {
		list, values = spec.PerLayer, rec.PerLayer
	}
	for _, m := range list {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	fmt.Println(string(b))
}

// printRecord writes a run's metrics by name with units.
func printRecord(f *os.File, spec *benchSpec, rec *runRecord) {
	fmt.Fprintf(f, "%s (seed %d, %.0fs window, correct=%v, %d attempted, %d failed)\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Correct, rec.Attempted, rec.Failed)
	for _, m := range spec.EndToEnd {
		note := ""
		switch m.Name {
		case "latency_p99_ms":
			note = fmt.Sprintf("  (median over %d chunks of %d samples)", rec.LatencyChunks, rec.LatencySamples)
		case "goodput_ops_s", "server_cpu_us_per_op", "latency_p50_ms":
			note = fmt.Sprintf("  (median over %d slices)", rec.Slices)
		}
		fmt.Fprintf(f, "  %-40s %14.6g %s%s\n", m.Name, rec.EndToEnd[m.Name], m.Unit, note)
	}
	fmt.Fprintf(f, "  %-40s %14.6g %s\n", "fail_frac", rec.EndToEnd["fail_frac"], "fraction")
	if len(rec.PerLayer) == 0 {
		return
	}
	for _, m := range spec.PerLayer {
		if v, ok := rec.PerLayer[m.Name]; ok && v != 0 {
			fmt.Fprintf(f, "  %-40s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
}

// commit is the checked-out git commit, or "unknown" outside a
// repository.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, where the journal lives.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
