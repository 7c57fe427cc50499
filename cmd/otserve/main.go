// Command otserve runs the simulation service: POST jobs to /jobs and
// receive the same JSON report otsim -json prints, with admission
// control (bounded queue, per-client fairness, per-class circuit
// breaker), per-job deadlines and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	otserve -addr :8080
//	otserve -workers 8 -queue 64 -cachecap 8
//	otserve -rate 50 -burst 25            # per-client token buckets
//	otserve -breaker 3                    # trip after 3 class failures
//	otserve -draintimeout 30s             # SIGTERM → finish in-flight
//	otserve -leakcheck                    # verify zero leaked goroutines at exit
//	otserve -journal /var/lib/ot/journal  # crash-safe state: WAL + recovery by replay
//	otserve -rescache 128m                # result-cache byte budget (-1 disables)
//	otserve -pprof localhost:6060         # net/http/pprof side listener
//
//	curl -s localhost:8080/jobs -d '{"alg":"sort","n":16,"seed":1}'
//	curl -s localhost:8080/jobs -d '{"alg":"cc","n":1024,"seed":1}'
//	curl -s localhost:8080/metrics
//
// Identical specs are served compute-once: the first execution's bytes
// are cached by canonical spec fingerprint and every later identical
// submission — any client — answers from them (response header
// X-Result-Cache: hit, report field "cached": true), while concurrent
// identical specs coalesce onto one execution ("coalesced": true).
// /metrics reports the result_cache block.
//
// Streamed sessions hold a machine (or packed engine) across update
// batches so labels are maintained incrementally instead of recomputed
// per request:
//
//	otserve -maxsessions 16 -sessionttl 5m
//	curl -s localhost:8080/sessions -d '{"n":256,"seed":1,"grid":true}'
//	curl -s localhost:8080/sessions/s-1/updates -d '{"count":4}'
//	curl -s -X DELETE localhost:8080/sessions/s-1
//
// Every healthy Boolean ("cc") job and session, without faults or
// events, runs on the machine-free bit-packed engine: the report is
// byte-identical to the scalar path's, no machine is checked out, and
// the size bound rises to n=1024 (sort, faulty and supervised runs stop
// at 256). The "packed" request field is accepted for compatibility
// and chooses nothing. /metrics reports packed_jobs and
// packed_lane_occupancy.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// parseBytes reads a byte budget: a plain integer, or one with a
// k/m/g suffix. "" means 0 (the server default), "-1" disables.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "worker pool width")
	queue := flag.Int("queue", 0, "admission queue capacity (0 = 4×workers)")
	cachecap := flag.Int("cachecap", 0, "machines per cache shard (0 = workers)")
	rate := flag.Float64("rate", 50, "per-client token-bucket rate, jobs/sec (-1 disables)")
	burst := flag.Float64("burst", 25, "per-client token-bucket burst")
	breaker := flag.Int("breaker", 3, "consecutive class failures that trip the breaker (-1 disables)")
	breakerBase := flag.Duration("breakerbase", time.Second, "first breaker-open interval (doubles per trip)")
	breakerMax := flag.Duration("breakermax", 16*time.Second, "breaker backoff cap")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max time to finish in-flight jobs on SIGTERM")
	leakcheck := flag.Bool("leakcheck", false, "after drain, fail (exit 3) if goroutines leaked")
	maxSessions := flag.Int("maxsessions", 0, "resident streamed-session cap (0 = 2×workers)")
	sessionTTL := flag.Duration("sessionttl", 2*time.Minute, "idle streamed sessions are evicted after this long")
	journalDir := flag.String("journal", "", "write-ahead journal directory; enables crash recovery by replay")
	snapshotEvery := flag.Int("snapshotevery", 0, "compact the journal after this many tail records (0 = 256)")
	sweepInterval := flag.Duration("sweepinterval", 0, "background sweeper period (0 = auto, <0 disables)")
	rescacheBytes := flag.String("rescache", "", "result-cache byte budget, e.g. 64m or 1g (empty = 64m default, -1 disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060)")
	flag.Parse()

	rcBytes, err := parseBytes(*rescacheBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "otserve: -rescache: %v\n", err)
		os.Exit(1)
	}

	baseline := runtime.NumGoroutine()

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "otserve: -pprof: %v\n", err)
			os.Exit(1)
		}
		// The profiler gets its own mux and listener so it is never
		// exposed on the service address.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		fmt.Fprintf(os.Stderr, "otserve: pprof on %s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, mux)
		baseline = runtime.NumGoroutine()
	}

	srv, err := server.Open(server.Config{
		Workers: *workers, QueueCap: *queue, CacheCap: *cachecap,
		Rate: *rate, Burst: *burst,
		BreakerThreshold: *breaker, BreakerBase: *breakerBase, BreakerMax: *breakerMax,
		MaxSessions: *maxSessions, SessionTTL: *sessionTTL,
		JournalDir: *journalDir, SnapshotEvery: *snapshotEvery, SweepInterval: *sweepInterval,
		ResultCacheBytes: rcBytes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "otserve: %v\n", err)
		os.Exit(1)
	}
	if *journalDir != "" {
		if d := srv.Metrics().Durability; d != nil {
			fmt.Fprintf(os.Stderr, "otserve: journal %s: recovered %d sessions, replayed %d records in %d ms\n",
				*journalDir, d.SessionsRecovered, d.RecordsReplayed, d.RecoveryMS)
		}
	}
	httpSrv := &http.Server{Handler: srv}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "otserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "otserve: listening on %s (workers %d, queue %d)\n",
		ln.Addr(), *workers, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "otserve: %v — draining (timeout %s)\n", s, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "otserve: serve: %v\n", err)
		os.Exit(1)
	}

	// The shutdown ladder: stop admitting and finish every queued and
	// in-flight job (Drain), then close idle HTTP connections once the
	// handlers have flushed their results (Shutdown).
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "otserve: drain: %v\n", err)
		code = 2
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "otserve: shutdown: %v\n", err)
		code = 2
	}

	snap := srv.Metrics()
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	fmt.Fprintln(os.Stderr, "otserve: final metrics:")
	enc.Encode(snap)

	if *leakcheck && code == 0 {
		if !settled(baseline) {
			fmt.Fprintf(os.Stderr, "otserve: goroutine leak: %d alive, baseline %d\n",
				runtime.NumGoroutine(), baseline)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 3
		} else {
			fmt.Fprintln(os.Stderr, "otserve: leakcheck ok")
		}
	}
	os.Exit(code)
}

// settled polls until the goroutine count returns to the pre-server
// baseline (plus the signal-notify goroutine) or 5s elapse.
func settled(baseline int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+1 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
