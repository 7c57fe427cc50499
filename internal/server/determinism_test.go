package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/packed"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// otsimReport recomputes the report the otsim CLI would print for a
// job, with a fresh machine and no cache, batch engine or pool in the
// loop — an independent reference for the server's bit-identical
// determinism contract.
func otsimReport(t *testing.T, j *Job) *report.Report {
	t.Helper()
	build := func() *core.Machine {
		m, err := j.build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return m
	}
	if !j.Supervised() {
		m := build()
		if j.Faults > 0 {
			if err := m.InjectFaults(fault.Random(j.N, j.Faults, j.Seed)); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}
		rng := workload.NewRNG(j.Seed)
		var elapsed vlsi.Time
		if j.Alg == "sort" {
			_, elapsed = sorting.SortOTN(m, rng.Perm(j.N), 0)
		} else {
			graph.LoadGraph(m, rng.Gnp(j.N, 2.0/float64(j.N)))
			_, elapsed = graph.ConnectedComponents(m, 0)
		}
		if err := m.Err(); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		metric := vlsi.Metric{Area: m.Area(), Time: elapsed}
		rep := &report.Report{
			Alg: j.Alg, Network: j.network(), Model: j.model().Name(), N: j.N, Seed: j.Seed,
			Time: int64(elapsed), Area: int64(m.Area()), AT2: metric.AT2(),
			Faults: j.Faults, Recovered: true,
		}
		if j.Faults > 0 {
			rep.Health = report.HealthOf(m.Health())
		}
		return rep
	}

	// Supervised: healthy baseline fixes horizon + answer, second
	// machine runs under the checkpoint/rollback supervisor.
	healthy := build()
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
	if err := healthy.Err(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	m := build()
	sched := fault.RandomSchedule(j.N, *j.Events, healthyT, j.Seed)
	var prog *resilience.Program
	var out func() []int64
	var err error
	if j.Alg == "sort" {
		prog, out, err = resilience.SortProgram(m, xs)
	} else {
		prog, out, err = resilience.ComponentsProgram(m, g)
	}
	if err != nil {
		t.Fatalf("program: %v", err)
	}
	done, runErr := resilience.Run(m, sched, prog, 0, resilience.Options{})
	if runErr != nil {
		t.Fatalf("supervised reference run: %v", runErr)
	}
	correct := false
	got := out()
	if j.Alg == "sort" {
		correct = len(got) == len(want)
		for i := range got {
			correct = correct && got[i] == want[i]
		}
	} else {
		correct = graph.SamePartition(got, want)
	}
	metric := vlsi.Metric{Area: m.Area(), Time: done}
	return &report.Report{
		Alg: j.Alg, Network: j.network(), Model: j.model().Name(), N: j.N, Seed: j.Seed,
		Events: *j.Events, HealthyTime: int64(healthyT),
		Time: int64(done), Area: int64(m.Area()), AT2: metric.AT2(),
		Recovered: correct, Correct: &correct,
		Health: report.HealthOf(m.Health()),
	}
}

// postJob submits one job and decodes the 200 response.
func postJob(t *testing.T, ts *httptest.Server, j *Job) (*report.Report, []byte) {
	t.Helper()
	body, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
	var rep report.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	return &rep, buf.Bytes()
}

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ts
}

// TestServerMatchesOtsim pins the contract: the /jobs response body is
// byte-for-byte the JSON otsim -json prints for the same job.
func TestServerMatchesOtsim(t *testing.T) {
	three := 3
	jobs := []*Job{
		{Alg: "sort", N: 16, Seed: 7},
		{Alg: "cc", N: 16, Seed: 11},
		{Alg: "sort", N: 16, Seed: 7, Model: "const"},
		{Alg: "sort", Network: "scaled", N: 16, Seed: 3},
		{Alg: "sort", N: 16, Seed: 5, Faults: 2},
		{Alg: "sort", N: 8, Seed: 9, Events: &three},
		{Alg: "cc", N: 8, Seed: 13, Events: &three},
		// Packed jobs: the reference below runs the scalar machine
		// program, so these three pin the tentpole contract end to
		// end — the packed engine's response bytes are exactly what
		// the scalar path would have sent.
		{Alg: "cc", N: 16, Seed: 11, Packed: true},
		{Alg: "cc", N: 64, Seed: 21, Packed: true},
		{Alg: "cc", Network: "scaled", N: 16, Seed: 11, Packed: true},
	}
	ts := testServer(t, Config{Workers: 2})
	for _, j := range jobs {
		j := j
		t.Run(j.Class(), func(t *testing.T) {
			want := otsimReport(t, j)
			got, raw := postJob(t, ts, j)
			if !got.Same(want) {
				t.Fatalf("report differs from otsim:\n%s", got.Diff(want))
			}
			wantBytes, err := want.Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if wb := strings.TrimSpace(string(wantBytes)); wb != strings.TrimSpace(string(raw)) {
				t.Fatalf("response bytes differ from otsim output:\nserver:\n%s\notsim:\n%s", raw, wb)
			}
		})
	}
}

// TestPackedLargeN pins the packed admission extension: a packed
// Boolean job at N=1024 — four times the scalar size bound — is
// accepted, served without a machine checkout, and reports exactly
// the packed engine's simulated results; /metrics counts it and its
// lane occupancy. The same N on the scalar path stays rejected, as do
// packed requests for non-Boolean or degraded runs.
func TestPackedLargeN(t *testing.T) {
	ts := testServer(t, Config{Workers: 2})
	j := &Job{Alg: "cc", N: 1024, Seed: 5, Packed: true}
	rep, _ := postJob(t, ts, j)

	eng, err := packed.EngineFor(j.N, j.config(), false)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewRNG(j.Seed).Gnp(j.N, 2.0/float64(j.N))
	_, wantT := eng.Components(g, 0)
	if rep.Time != int64(wantT) || rep.Area != int64(eng.Area()) {
		t.Fatalf("packed N=1024 report time/area (%d, %d) != engine (%d, %d)",
			rep.Time, rep.Area, wantT, eng.Area())
	}
	if !rep.Recovered || rep.Error != "" {
		t.Fatalf("packed N=1024 job unhealthy: %+v", rep)
	}

	for _, bad := range []*Job{
		{Alg: "cc", N: 1024, Seed: 5},                      // scalar path keeps the scalar bound
		{Alg: "sort", N: 16, Seed: 5, Packed: true},        // packed is Boolean-family only
		{Alg: "cc", N: 16, Faults: 1, Packed: true},        // degraded runs take the scalar path
		{Alg: "cc", N: 16, Events: new(int), Packed: true}, // supervised likewise
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("job %+v validated; want rejection", bad)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.PackedJobs != 1 {
		t.Fatalf("packed_jobs = %d, want 1", snap.PackedJobs)
	}
	if snap.PackedLaneOccup != 1.0 {
		t.Fatalf("packed_lane_occupancy = %v, want 1.0 (1024 bits fill 16 words)", snap.PackedLaneOccup)
	}
}

// TestDeterminismUnderConcurrency pins the concurrent-submission
// contract: the same (seed, schedule, workload) submitted concurrently
// — through machine-cache reuse across workers — produces
// bit-identical metrics, and distinct seeds each match their own
// dedicated-run reference.
func TestDeterminismUnderConcurrency(t *testing.T) {
	ts := testServer(t, Config{Workers: 4, QueueCap: 64, Rate: -1})

	// Same job, 16 concurrent copies.
	same := &Job{Alg: "sort", N: 16, Seed: 42}
	want := otsimReport(t, same)
	var wg sync.WaitGroup
	reps := make([]*report.Report, 16)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], _ = postJob(t, ts, same)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if !rep.Same(want) {
			t.Fatalf("copy %d differs:\n%s", i, rep.Diff(want))
		}
	}

	// Distinct seeds racing through the worker pool and its shared
	// machine cache: each must equal its own solo reference.
	wants := make([]*report.Report, 8)
	for i := range wants {
		wants[i] = otsimReport(t, &Job{Alg: "sort", N: 16, Seed: uint64(100 + i)})
	}
	got := make([]*report.Report, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = postJob(t, ts, &Job{Alg: "sort", N: 16, Seed: uint64(100 + i)})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !got[i].Same(wants[i]) {
			t.Fatalf("seed %d differs from dedicated run:\n%s", 100+i, got[i].Diff(wants[i]))
		}
	}
}

// TestStreamSubmission pins the NDJSON array path: every line carries
// a correct, attributable report.
func TestStreamSubmission(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, QueueCap: 32, Rate: -1})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Alg: "sort", N: 16, Seed: uint64(i)})
	}
	body, _ := json.Marshal(jobs)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	seen := map[string]*report.Report{}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var item struct {
			JobID  string         `json:"job_id"`
			Status string         `json:"status"`
			Report *report.Report `json:"report"`
		}
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if item.Status != "ok" || item.Report == nil {
			t.Fatalf("item %q: status %q, report %v", item.JobID, item.Status, item.Report)
		}
		seen[item.JobID] = item.Report
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d items, want %d", len(seen), len(jobs))
	}
	for i, j := range jobs {
		want := otsimReport(t, &Job{Alg: j.Alg, N: j.N, Seed: j.Seed})
		if rep := seen[j.ID]; !rep.Same(want) {
			t.Fatalf("job %d: %s", i, rep.Diff(want))
		}
	}
}
