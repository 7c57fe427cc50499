package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/loadgen"
	"repro/internal/report"
	"repro/internal/server"
)

// servesweepMode measures the simulation service's degradation curve:
// an in-process otserve instance is driven at three offered-load
// levels (comfortable, saturating, overloading a 2-worker pool) and
// the table reports what the admission ladder traded at each level —
// completed throughput, p50/p99 latency of the jobs that ran, and the
// shed rate for the ones it refused. The pin is qualitative but
// load-bearing: p99 stays bounded and errors stay zero even when the
// offered load is far past capacity, because overflow is shed at
// admission instead of queued without limit.
func servesweepMode(cacheJSON string) bool {
	srv := server.New(server.Config{
		Workers: 2, QueueCap: 8, CacheCap: 2,
		Rate: -1, BreakerThreshold: -1, // sweep measures queue shedding alone
	})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	fmt.Println("Service degradation sweep — sort n=16 jobs, 2 workers, queue 8")
	fmt.Println()
	fmt.Printf("%10s  %12s  %9s  %9s  %9s  %7s  %7s\n",
		"offered/s", "completed/s", "p50 ms", "p99 ms", "max ms", "shed %", "errors")

	ok := true
	for _, rate := range []float64{100, 400, 1600} {
		sum, err := loadgen.Run(loadgen.Options{
			URL: ts.URL, Rate: rate, Duration: 1500 * time.Millisecond,
			Arrival: "poisson", Clients: 4, Seed: 1,
			Job:        server.Job{Alg: "sort", N: 16, Seed: 1},
			HTTPClient: ts.Client(),
		})
		if err != nil {
			fmt.Printf("otbench: servesweep at %.0f/s: %v\n", rate, err)
			return false
		}
		errors := sum.Failed + sum.Transport + sum.Invalid
		fmt.Printf("%10.0f  %12.1f  %9.2f  %9.2f  %9.2f  %7.1f  %7d\n",
			sum.OfferedPS, float64(sum.OK)/sum.Elapsed,
			sum.P50ms, sum.P99ms, sum.MaxMs, 100*sum.ShedRate, errors)
		if errors > 0 {
			fmt.Printf("otbench: servesweep at %.0f/s: %d server/transport errors\n", rate, errors)
			ok = false
		}
	}
	fmt.Println()
	fmt.Println("Reading: completed/s plateaus at pool capacity while offered/s grows;")
	fmt.Println("the surplus turns into shed %, not into unbounded p99 or errors.")

	return cacheSweepSection(cacheJSON) && ok
}

// cacheSweepRow is one side of the compute-once comparison in the
// BENCH_PR10.json snapshot. Host-time numbers (completed/s, latency)
// are environmental; the ratios and the hit rate are the pins.
type cacheSweepRow struct {
	Cache          string  `json:"cache"`
	OfferedPS      float64 `json:"offered_jobs_per_sec"`
	CompletedPS    float64 `json:"completed_jobs_per_sec"`
	OK             int     `json:"ok"`
	P50ms          float64 `json:"p50_ms"`
	P99ms          float64 `json:"p99_ms"`
	ShedPct        float64 `json:"shed_pct"`
	CacheHits      int     `json:"cache_hits"`
	CacheCoalesced int     `json:"cache_coalesced"`
	HitRate        float64 `json:"cache_hit_rate"`
}

// cacheSweepFile is the on-disk schema of the compute-once snapshot
// (BENCH_PR10.json). It is deliberately a separate file from
// BENCH.json: the regression suite there gates on set-equality of its
// benchmark names, and these service-level numbers are a different
// kind of artefact (whole-system throughput under a popularity
// distribution, not per-op host cost).
type cacheSweepFile struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	MaxProcs  int     `json:"maxprocs"`
	Workload  string  `json:"workload"`
	ZipfSpecs int     `json:"zipf_specs"`
	ZipfSkew  float64 `json:"zipf_skew"`

	Rows []cacheSweepRow `json:"rows"`

	// SpeedupX is completed-throughput (cache on) over (cache off);
	// the sweep fails below 5×.
	SpeedupX float64 `json:"speedup_x"`
	// ByteIdentical records that a cached answer matched a fresh
	// execution of the same spec on the cache-off server under
	// report.Same (simulated quantities exactly equal, transport
	// metadata ignored). Always true in a committed snapshot.
	ByteIdentical bool `json:"byte_identical"`
}

// cacheSweepSection is the compute-once measurement: the same
// zipf-popular workload — a hot head of repeated specs — is offered
// far past the 2-worker execution capacity to two identically
// configured servers, one with the result cache on (the default) and
// one with it disabled. Four pins, all quantitative: completed
// throughput with the cache ≥5× without, p99 lower, ≥80% of answers
// served from the cache (hit or coalesced), and a cached answer
// byte-identical under report.Same to a fresh execution of the same
// spec on the cache-off server.
func cacheSweepSection(jsonPath string) bool {
	const (
		rate      = 600.0
		dur       = 1500 * time.Millisecond
		zipfSpecs = 8
		zipfSkew  = 1.4
	)
	job := server.Job{Alg: "cc", N: 128, Seed: 1}

	fmt.Println()
	fmt.Printf("Compute-once sweep — cc n=%d jobs, zipf over %d specs (skew %.1f), offered %.0f/s\n",
		job.N, zipfSpecs, zipfSkew, rate)
	fmt.Println()
	fmt.Printf("%-9s  %10s  %12s  %9s  %9s  %7s  %9s\n",
		"cache", "offered/s", "completed/s", "p50 ms", "p99 ms", "shed %", "hit rate")

	type side struct {
		name  string
		bytes int64 // ResultCacheBytes: 0 = default budget, -1 = disabled
		row   cacheSweepRow
		ts    *httptest.Server
		srv   *server.Server
	}
	sides := []*side{{name: "on", bytes: 0}, {name: "off", bytes: -1}}
	defer func() {
		for _, sd := range sides {
			if sd.ts == nil {
				continue
			}
			sd.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			sd.srv.Drain(ctx)
			cancel()
		}
	}()

	for _, sd := range sides {
		sd.srv = server.New(server.Config{
			Workers: 2, QueueCap: 8, CacheCap: 2,
			Rate: -1, BreakerThreshold: -1,
			ResultCacheBytes: sd.bytes,
		})
		sd.ts = httptest.NewServer(sd.srv)

		sum, err := loadgen.Run(loadgen.Options{
			URL: sd.ts.URL, Rate: rate, Duration: dur,
			Arrival: "poisson", Clients: 4, Seed: 1,
			Job: job, ZipfSpecs: zipfSpecs, ZipfS: zipfSkew,
			HTTPClient: sd.ts.Client(),
		})
		if err != nil {
			fmt.Printf("otbench: cachesweep (cache %s): %v\n", sd.name, err)
			return false
		}
		if errs := sum.Failed + sum.Transport + sum.Invalid; errs > 0 {
			fmt.Printf("otbench: cachesweep (cache %s): %d server/transport errors\n", sd.name, errs)
			return false
		}
		served := sum.CacheHits + sum.CacheCoalesced
		hitRate := 0.0
		if sum.OK > 0 {
			hitRate = float64(served) / float64(sum.OK)
		}
		sd.row = cacheSweepRow{
			Cache:     sd.name,
			OfferedPS: sum.OfferedPS, CompletedPS: float64(sum.OK) / sum.Elapsed,
			OK: sum.OK, P50ms: sum.P50ms, P99ms: sum.P99ms,
			ShedPct:   100 * sum.ShedRate,
			CacheHits: sum.CacheHits, CacheCoalesced: sum.CacheCoalesced,
			HitRate: hitRate,
		}
		fmt.Printf("%-9s  %10.0f  %12.1f  %9.2f  %9.2f  %7.1f  %8.1f%%\n",
			sd.name, sd.row.OfferedPS, sd.row.CompletedPS,
			sd.row.P50ms, sd.row.P99ms, sd.row.ShedPct, 100*hitRate)
	}
	on, off := sides[0], sides[1]

	ok := true
	speedup := 0.0
	if off.row.CompletedPS > 0 {
		speedup = on.row.CompletedPS / off.row.CompletedPS
	}
	fmt.Println()
	fmt.Printf("Compute-once speedup: %.1fx completed throughput, p99 %.2f ms vs %.2f ms\n",
		speedup, on.row.P99ms, off.row.P99ms)
	if speedup < 5 {
		fmt.Printf("otbench: cachesweep: speedup %.1fx below the 5x pin\n", speedup)
		ok = false
	}
	if on.row.P99ms >= off.row.P99ms {
		fmt.Printf("otbench: cachesweep: cache-on p99 %.2f ms not below cache-off %.2f ms\n",
			on.row.P99ms, off.row.P99ms)
		ok = false
	}
	if on.row.HitRate < 0.80 {
		fmt.Printf("otbench: cachesweep: hit rate %.1f%% below the 80%% pin\n", 100*on.row.HitRate)
		ok = false
	}

	// Byte identity: the hottest spec (zipf draw 0 → the workload's
	// base seed) executes fresh on the cache-off server and answers
	// from the cache on the other; under report.Same the two reports
	// must describe the same simulation exactly.
	fresh, _, err := postJobReport(off.ts, job)
	if err != nil {
		fmt.Printf("otbench: cachesweep: fresh execution: %v\n", err)
		return false
	}
	cached, hdr, err := postJobReport(on.ts, job)
	if err != nil {
		fmt.Printf("otbench: cachesweep: cached answer: %v\n", err)
		return false
	}
	if hdr != "hit" {
		fmt.Printf("otbench: cachesweep: expected X-Result-Cache: hit, got %q\n", hdr)
		ok = false
	}
	if !fresh.Same(cached) {
		fmt.Println("otbench: cachesweep: cached answer diverges from fresh execution")
		ok = false
	} else {
		fmt.Println("Byte identity: cached answer == fresh execution (report.Same)")
	}

	if jsonPath != "" && ok {
		f := cacheSweepFile{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			MaxProcs:  runtime.GOMAXPROCS(0),
			Workload:  fmt.Sprintf("cc n=%d, %gs poisson at %.0f/s, 2 workers queue 8", job.N, dur.Seconds(), rate),
			ZipfSpecs: zipfSpecs, ZipfSkew: zipfSkew,
			Rows:     []cacheSweepRow{on.row, off.row},
			SpeedupX: speedup, ByteIdentical: true,
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Printf("otbench: cachesweep: %v\n", err)
			return false
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			fmt.Printf("otbench: cachesweep: %v\n", err)
			return false
		}
		fmt.Printf("Snapshot written to %s\n", jsonPath)
	}
	return ok
}

// postJobReport posts one job spec and decodes the report, returning
// the X-Result-Cache header alongside it.
func postJobReport(ts *httptest.Server, job server.Job) (*report.Report, string, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return nil, "", err
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	var rep report.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, "", err
	}
	if resp.StatusCode != 200 {
		return nil, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return &rep, resp.Header.Get("X-Result-Cache"), nil
}
