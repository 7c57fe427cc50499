// Command otload drives an otserve instance with synthetic open-loop
// traffic and reports what the admission ladder did about it: latency
// percentiles for the jobs that ran, shed rates for the ones it
// refused, and per-client counts that show fairness isolating a
// misbehaving client.
//
// Usage:
//
//	otload -url http://localhost:8080 -rate 100 -duration 5s
//	otload -arrival bursty                # 3× rate bursts, same mean
//	otload -misbehave                     # add a 4×-rate flooding client
//	otload -alg cc -n 64 -deadline 200    # cc jobs with 200ms deadlines
//	otload -events 3                      # supervised jobs (mid-run faults)
//	otload -zipf 16                       # Zipf spec popularity over 16 specs
//	otload -json                          # machine-readable summary
//
// -zipf draws each request's workload seed from a Zipf-distributed
// popularity over that many distinct specs (skew -zipfs, default 1.2)
// instead of a unique seed per request — the compute-once regime. The
// ledger counts answers the server served from its result cache (the
// X-Result-Cache header) per run and per client.
//
// -session switches to the streamed-session replay: check out one
// /sessions session, stream -batches update batches of -batchsize
// generated updates through it (pixel flips with -grid, edge toggles
// otherwise), and print per-batch round-trip latency percentiles:
//
//	otload -session -n 256 -grid -packed -batches 64 -batchsize 4
//
// Against a journaling server (otserve -journal), -retries re-attempts
// shed and lost requests with jittered backoff honoring Retry-After,
// attaching an Idempotency-Key to every attempt so retries never
// double-execute; -sessionid resumes a crash-recovered session, and
// -keyprefix/-reports let a resubmitted batch sequence be compared
// byte-for-byte against an uninterrupted reference:
//
//	otload -session -keyprefix run1 -keepopen -reports before.ndjson
//	otload -session -sessionid s-1 -keyprefix run1 -reports after.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "otserve base URL")
	rate := flag.Float64("rate", 50, "offered load, jobs/sec")
	duration := flag.Duration("duration", 2*time.Second, "length of the arrival schedule")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson | uniform | bursty")
	clients := flag.Int("clients", 4, "spread load over this many client IDs")
	misbehave := flag.Bool("misbehave", false, "add one flooding client at 4× rate")
	seed := flag.Uint64("seed", 1, "schedule + job seed")
	alg := flag.String("alg", "sort", "job workload: sort | cc")
	n := flag.Int("n", 16, "job problem size (power of two)")
	network := flag.String("network", "", "job network: otn | scaled (default otn)")
	model := flag.String("model", "", "job delay model: log | const | linear (default log)")
	faults := flag.Int("faults", 0, "static faults per job")
	events := flag.Int("events", -1, "supervised mid-run fault arrivals (-1 = plain jobs)")
	deadline := flag.Int64("deadline", 0, "per-job deadline, ms (0 = none)")
	jsonOut := flag.Bool("json", false, "print the summary as JSON")
	minOK := flag.Int("minok", 0, "exit 1 unless at least this many jobs completed")
	session := flag.Bool("session", false, "replay one streamed session instead of open-loop jobs")
	grid := flag.Bool("grid", false, "session: pixel-image workload (n must be a perfect square)")
	packed := flag.Bool("packed", false, "session: set the spec's packed field (kept for compatibility; healthy sessions run packed regardless)")
	batches := flag.Int("batches", 32, "session: update batches to stream")
	batchSize := flag.Int("batchsize", 4, "session: generated updates per batch")
	retries := flag.Int("retries", 0, "re-attempts per request on 429/503 or transport error (Retry-After honored, idempotency keys attached)")
	zipf := flag.Int("zipf", 0, "draw job seeds Zipf-distributed over this many distinct specs (0 = unique seed per request)")
	zipfS := flag.Float64("zipfs", 1.2, "zipf skew exponent (> 1; larger = hotter head)")
	sessionID := flag.String("sessionid", "", "session: resume this existing session instead of creating one")
	startBatch := flag.Int("startbatch", 1, "session: number batches (and idempotency keys) from this index")
	keyPrefix := flag.String("keyprefix", "", "session: attach Idempotency-Key <prefix>-b<i> to every batch")
	keepOpen := flag.Bool("keepopen", false, "session: leave the session resident (no DELETE)")
	think := flag.Duration("think", 0, "session: pause between batches (paces the stream for chaos kills)")
	reports := flag.String("reports", "", "session: write per-batch reports as NDJSON to this file")
	flag.Parse()

	if *session {
		ev := 0
		if *events > 0 {
			ev = *events
		}
		sum, err := loadgen.RunSession(loadgen.SessionOptions{
			URL: *url,
			Spec: server.SessionSpec{
				N: *n, Seed: *seed, Network: *network, Model: *model,
				Packed: *packed, Grid: *grid, Faults: *faults, Events: ev,
			},
			Batches: *batches, BatchSize: *batchSize,
			SessionID: *sessionID, StartBatch: *startBatch,
			KeyPrefix: *keyPrefix, Retries: *retries,
			KeepOpen: *keepOpen, ReportPath: *reports, Think: *think,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "otload: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(sum)
		} else {
			fmt.Print(sum.Text())
		}
		if sum.Failed > 0 {
			fmt.Fprintf(os.Stderr, "otload: %d batches failed\n", sum.Failed)
			os.Exit(1)
		}
		if sum.Batches < *minOK {
			fmt.Fprintf(os.Stderr, "otload: only %d batches completed, need %d\n", sum.Batches, *minOK)
			os.Exit(1)
		}
		return
	}

	job := server.Job{
		Alg: *alg, Network: *network, Model: *model, N: *n, Seed: *seed,
		Faults: *faults, DeadlineMS: *deadline,
	}
	if *events >= 0 {
		ev := *events
		job.Events = &ev
	}
	sum, err := loadgen.Run(loadgen.Options{
		URL: *url, Rate: *rate, Duration: *duration, Arrival: *arrival,
		Clients: *clients, Misbehave: *misbehave, Seed: *seed, Job: job,
		Retries: *retries, ZipfSpecs: *zipf, ZipfS: *zipfS,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "otload: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
	} else {
		fmt.Print(sum.Text())
	}
	if sum.Transport > 0 || sum.Failed > 0 {
		fmt.Fprintf(os.Stderr, "otload: %d transport errors, %d server failures\n", sum.Transport, sum.Failed)
		os.Exit(1)
	}
	if sum.OK < *minOK {
		fmt.Fprintf(os.Stderr, "otload: only %d jobs completed, need %d\n", sum.OK, *minOK)
		os.Exit(1)
	}
}
