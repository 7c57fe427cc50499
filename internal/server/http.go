package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/mcache"
	"repro/internal/report"
	"repro/internal/rescache"
)

// Config tunes the service. The zero value of every field means its
// default.
type Config struct {
	// Workers is the worker-pool width (default 4).
	Workers int
	// QueueCap bounds the admission queue (default 4 × Workers).
	QueueCap int
	// CacheCap bounds checked-out machines per shape shard (default
	// Workers; 0 would be unbounded, which a service never wants).
	CacheCap int
	// Rate and Burst configure per-client token buckets (defaults 50
	// jobs/sec, burst 25; Rate < 0 disables fairness).
	Rate, Burst float64
	// BreakerThreshold consecutive failures trip a job class's
	// circuit breaker (default 3; < 0 disables). BreakerBase is the
	// first open interval, doubling per trip up to BreakerMax
	// (defaults 1s and 16s).
	BreakerThreshold        int
	BreakerBase, BreakerMax time.Duration
	// MaxSessions bounds concurrently resident streamed-labeling
	// sessions (default 2 × Workers); SessionTTL evicts sessions idle
	// longer than this (default 2m). Expiry runs on the background
	// sweeper goroutine, which Drain/Close stop.
	MaxSessions int
	SessionTTL  time.Duration
	// SweepInterval paces the background sweeper (TTL eviction and
	// journal compaction triggers). Default min(SessionTTL/4, 15s),
	// floor 50ms; negative disables the goroutine (tests drive Sweep
	// directly).
	SweepInterval time.Duration
	// JournalDir enables crash-safe state: every admitted mutation is
	// written ahead to an fsynced journal in this directory, and Open
	// recovers the previous process's sessions by deterministic replay.
	// Empty disables journaling (New's behavior is then unchanged).
	JournalDir string
	// SnapshotEvery compacts the journal once its replay tail reaches
	// this many records (default 256; checked by the sweeper).
	SnapshotEvery int
	// ResultCacheBytes budgets the compute-once/serve-many result
	// cache: finished response bytes keyed by canonical spec
	// fingerprint, plus singleflight coalescing of concurrent
	// identical specs. 0 means the rescache default (64 MiB);
	// negative disables the layer entirely (every job executes).
	ResultCacheBytes int64
	// Now is the clock used by fairness, the breaker and session TTLs
	// (tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.Workers
	}
	if c.CacheCap <= 0 {
		c.CacheCap = c.Workers
	}
	if c.Rate == 0 {
		c.Rate = 50
	}
	if c.Burst == 0 {
		c.Burst = 25
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBase == 0 {
		c.BreakerBase = time.Second
	}
	if c.BreakerMax == 0 {
		c.BreakerMax = 16 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 2 * c.Workers
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 2 * time.Minute
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.SessionTTL / 4
		if c.SweepInterval > 15*time.Second {
			c.SweepInterval = 15 * time.Second
		}
		if c.SweepInterval < 50*time.Millisecond {
			c.SweepInterval = 50 * time.Millisecond
		}
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// Server is the simulation service: an http.Handler plus the
// admission machinery behind it.
type Server struct {
	cfg      Config
	cache    *mcache.Cache
	scache   *mcache.Cache // session machines; separate so sessions never starve job workers
	resc     *rescache.Cache
	executor *Executor
	fairness *Fairness
	breaker  *Breaker
	metrics  *Metrics
	pool     *Pool
	mux      *http.ServeMux

	sess         sessionTable
	sessInflight sync.WaitGroup

	// idem holds each Idempotency-Key's answer (see claimKey), with or
	// without a journal and whatever the result cache's setting.
	idem *rescache.Cache

	// Durability (nil/zero when JournalDir is unset): the write-ahead
	// journal and the compaction barrier. Every journaled mutation
	// holds jmu for reading; CompactNow holds it for writing, so a
	// snapshot never races the records it must cover.
	// Lock order: jmu before sess.mu before Session.lock.
	jl         *journal.Journal
	jmu        sync.RWMutex
	recovering bool

	sweepStop chan struct{}
	sweepDone chan struct{}
	sweepOnce sync.Once
}

// New assembles a started server (workers running, admitting). It is
// Open without journaling — cfg.JournalDir must be empty (New cannot
// surface a recovery error; it panics on one).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// newServer builds the unstarted core shared by New and Open.
func newServer(cfg Config) *Server {
	s := &Server{cfg: cfg, idem: rescache.New(idemBudget)}
	s.cache = mcache.NewWithCapacity(cfg.CacheCap)
	s.scache = mcache.NewWithCapacity(cfg.MaxSessions)
	if cfg.ResultCacheBytes >= 0 {
		s.resc = rescache.New(cfg.ResultCacheBytes)
	}
	s.executor = NewExecutor(s.cache)
	s.fairness = NewFairness(cfg.Rate, cfg.Burst, cfg.Now)
	s.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerBase, cfg.BreakerMax, cfg.Now)
	s.metrics = NewMetrics()
	s.pool = NewPool(cfg.Workers, cfg.QueueCap, s.executor.Run, s.breaker, s.metrics)
	s.sess.byID = make(map[string]*Session)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/sessions", s.handleSessions)
	s.mux.HandleFunc("/sessions/", s.handleSession)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain executes the shutdown ladder: stop the sweeper, drain the
// worker pool (see Pool.Drain), wait for in-flight session requests,
// compact the journal while the sessions are still live (a graceful
// restart then recovers them instantly from the snapshot — drain does
// NOT journal deletions), then release every session and close the
// journal. Returns once everything has joined or ctx expired.
func (s *Server) Drain(ctx context.Context) error {
	s.stopSweeper()
	err := s.pool.Drain(ctx)
	s.waitSessions(ctx.Done())
	if s.jl != nil {
		if cerr := s.CompactNow(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.closeSessions()
	if s.jl != nil {
		s.jl.Close()
	}
	return err
}

// Close stops the background sweeper and closes the journal without
// draining; for tests and callers that never started traffic. Safe
// after Drain (both are idempotent).
func (s *Server) Close() {
	s.stopSweeper()
	if s.jl != nil {
		s.jl.Close()
	}
}

// Metrics returns the current snapshot (also served at /metrics).
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.snapshot(s.cfg.QueueCap, s.cfg.Workers, s.cache, s.breaker, s.SessionCount())
	if s.resc != nil {
		snap.ResultCache = resultCacheSnapshot(s.resc.Stats())
	}
	if s.jl != nil {
		snap.Durability = s.metrics.durability(s.jl.Stats())
	}
	return snap
}

// shedError is the JSON body of every non-200 outcome.
type shedError struct {
	Error        string `json:"error"`
	Reason       string `json:"reason"` // queue_full | rate_limited | breaker_open | draining | deadline | invalid | failed | sessions_full
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	JobID        string `json:"job_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeShed(w http.ResponseWriter, status int, reason, msg, jobID string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64(retryAfter / time.Second)
		if retryAfter%time.Second != 0 {
			secs++ // Retry-After is integral seconds; round up
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, shedError{Error: msg, Reason: reason, JobID: jobID,
		RetryAfterMS: retryAfter.Milliseconds()})
}

// shedOutcome is one admission-ladder refusal, carried between the
// gate/enqueue helpers and the handlers (and relayed to coalesced
// followers when their leader was shed).
type shedOutcome struct {
	status int
	reason string
	msg    string
	retry  time.Duration
}

// gate runs one job through the pre-queue admission ladder: draining
// → validation → breaker → fairness. The handler validated the job
// once already and passes the verdict as invalid. On success gate
// returns the breaker-probe flag (the caller must Record or Release
// it); on refusal it returns the shed outcome for the handler to write.
// Everything after gate — result-cache lookup, coalescing, the
// bounded queue — sees only jobs the ladder already admitted, which
// is what keeps shed/breaker/fairness semantics identical with the
// cache on or off.
func (s *Server) gate(r *http.Request, spec *Job, invalid error) (bool, *shedOutcome) {
	if s.pool.Draining() {
		s.metrics.add(func(m *Metrics) { m.rejectedDrain++ })
		return false, &shedOutcome{http.StatusServiceUnavailable, "draining", "server is draining", time.Second}
	}
	if invalid != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		return false, &shedOutcome{http.StatusBadRequest, "invalid", invalid.Error(), 0}
	}
	if spec.Client == "" {
		spec.Client = r.Header.Get("X-Client-ID")
	}
	allowed, probe, retry := s.breaker.Allow(spec.Class())
	if !allowed {
		s.metrics.add(func(m *Metrics) { m.rejectedBreaker++ })
		return false, &shedOutcome{http.StatusServiceUnavailable, "breaker_open",
			fmt.Sprintf("circuit breaker open for class %s", spec.Class()), retry}
	}
	if ok, retry := s.fairness.Allow(spec.Client); !ok {
		s.releaseProbe(spec, probe)
		s.metrics.add(func(m *Metrics) { m.shedRateLimited++ })
		return false, &shedOutcome{http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("client %q over rate", spec.Client), retry}
	}
	return probe, nil
}

// releaseProbe returns a half-open breaker probe slot when the job's
// path never reaches breaker.Record (cache hits, coalesced followers,
// pre-queue sheds): the class must be able to probe again instead of
// wedging half-open.
func (s *Server) releaseProbe(spec *Job, probe bool) {
	if probe {
		s.breaker.Release(spec.Class())
	}
}

// enqueue is the final, bounded-queue rung for a gated job: arm the
// deadline context and submit to the worker pool.
func (s *Server) enqueue(r *http.Request, spec *Job, probe bool) (*queuedJob, *shedOutcome) {
	ctx := r.Context()
	var cancel context.CancelFunc
	if d := spec.Deadline(); d > 0 {
		// The deadline context deliberately survives the handler's
		// return (WithoutCancel): the worker owns the job until
		// delivery, the buffered result slot absorbs a late flush, and
		// the worker releases the timer via settle().
		ctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), d)
	}
	qj := &queuedJob{spec: spec, probe: probe, ctx: ctx, cancel: cancel, res: make(chan result, 1)}
	if err := s.pool.Submit(qj); err != nil {
		s.releaseProbe(spec, probe)
		if cancel != nil {
			cancel()
		}
		if errors.Is(err, ErrDraining) {
			s.metrics.add(func(m *Metrics) { m.rejectedDrain++ })
			return nil, &shedOutcome{http.StatusServiceUnavailable, "draining", "server is draining", time.Second}
		}
		s.metrics.add(func(m *Metrics) { m.shedQueueFull++ })
		return nil, &shedOutcome{http.StatusTooManyRequests, "queue_full", "admission queue full", s.retryAfterFull()}
	}
	return qj, nil
}

// retryAfterFull estimates when queue space will exist: one mean
// service interval. It is a hint, not a promise — clients back off
// and retry.
func (s *Server) retryAfterFull() time.Duration { return 250 * time.Millisecond }

// handleJobs is POST /jobs: a single job object → one report; an
// array of jobs → an NDJSON stream of per-job envelopes in completion
// order (each line flushed as its simulation finishes — results
// stream while later jobs still run).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeShed(w, http.StatusMethodNotAllowed, "invalid", "POST only", "", 0)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		s.handleJobStream(w, r, trimmed)
		return
	}

	var spec Job
	if err := json.Unmarshal(body, &spec); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	key, fl, ok := s.claimKey(w, r, spec.IdemKey, spec.ID)
	if !ok {
		return
	}
	defer s.idem.Resolve(key, fl, nil, nil)
	if err := spec.Validate(); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), spec.ID, 0)
		return
	}
	s.writeOutcome(w, &spec, key, fl, s.wait(r, s.admitJob(r, &spec, nil)))
}

// streamItem is one NDJSON line of an array submission.
type streamItem struct {
	JobID        string         `json:"job_id,omitempty"`
	Status       string         `json:"status"` // ok | failed | shed reason
	RetryAfterMS int64          `json:"retry_after_ms,omitempty"`
	Error        string         `json:"error,omitempty"`
	Report       *report.Report `json:"report,omitempty"`
}

// handleJobStream admits every job of an array, emitting the lines
// settled at admission (sheds and stored hits) immediately and the
// rest as their simulations complete.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request, body []byte) {
	var specs []*Job
	if err := json.Unmarshal(body, &specs); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(it streamItem) {
		enc.Encode(it)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}

	var open []*ticket
	for _, spec := range specs {
		if spec == nil {
			s.metrics.add(func(m *Metrics) { m.invalid++ })
			emit(streamItem{Status: "invalid", Error: "null job"})
			continue
		}
		// Admission refuses an invalid element after the draining
		// check, so a draining server answers it "draining" like every
		// other element.
		t := s.admitJob(r, spec, spec.Validate())
		if t.out != nil {
			emit(streamOutcome(spec.ID, *t.out))
			continue
		}
		open = append(open, t)
	}

	// Fan results into one channel so lines stream in completion
	// order, not submission order.
	ch := make(chan streamItem, len(open))
	for _, t := range open {
		go func(t *ticket) { ch <- streamOutcome(t.spec.ID, s.wait(r, t)) }(t)
	}
	for range open {
		emit(<-ch)
	}
}

// handleMetrics is GET /metrics: the full Snapshot as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleHealthz reports liveness and drain state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	code := http.StatusOK
	if s.pool.Draining() {
		state = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": state})
}
