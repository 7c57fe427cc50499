package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/algorithms/graph"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcache"
	"repro/internal/packed"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// SessionSpec is the POST /sessions body: it checks out a stateful
// streamed-labeling session whose graph survives between requests.
// The engine choice, size bounds and mode conflicts are exactly the
// job rules (a session is a "cc" job that stays resident): a healthy
// session runs on the packed engine, a fault-bearing one on a machine.
type SessionSpec struct {
	// Client names the submitter for per-client fairness.
	Client string `json:"client,omitempty"`
	// N is the vertex count (power of two; ≤ PackedMaxN when healthy,
	// ≤ MaxN with faults or events).
	N int `json:"n"`
	// Seed drives the workload generator and the update stream.
	Seed uint64 `json:"seed"`
	// Network and Model as in jobs ("otn"/"scaled"; "log"/"const"/
	// "linear").
	Network string `json:"network,omitempty"`
	Model   string `json:"model,omitempty"`
	// Packed is kept for compatibility and chooses nothing, as on
	// jobs: it is still refused together with faults or events.
	Packed bool `json:"packed,omitempty"`
	// Grid selects the pixel-image workload: N must be a perfect
	// square (side² = N), the initial graph is the 4-adjacency of a
	// random half-density image, and server-generated updates are
	// pixel flips. Otherwise the graph is the standard Gnp draw and
	// generated updates are random edge toggles.
	Grid bool `json:"grid,omitempty"`
	// Faults injects a static dead-edge plan before the initial
	// labeling (scalar sessions only).
	Faults int `json:"faults,omitempty"`
	// Events schedules that many dead-edge arrivals on the session's
	// simulated timeline (scalar sessions only): update batches and
	// fault arrivals compose on one clock, and an arrival striking
	// mid-batch rolls back and replays the pending batch.
	Events int `json:"events,omitempty"`
}

// job translates the spec into the equivalent Job for the engine
// decision and machine-shape reuse.
func (sp *SessionSpec) job() *Job {
	j := &Job{Alg: "cc", Client: sp.Client, N: sp.N, Seed: sp.Seed,
		Network: sp.Network, Model: sp.Model, Faults: sp.Faults}
	if sp.Events > 0 {
		j.Events = &sp.Events
	}
	return j
}

// Validate applies the job rules plus the grid shape constraint.
func (sp *SessionSpec) Validate() error {
	j := sp.job()
	j.Packed = sp.Packed
	if err := j.Validate(); err != nil {
		return err
	}
	if sp.Grid && gridSide(sp.N) < 0 {
		return fmt.Errorf("grid sessions need a square n (side² = n), got n = %d", sp.N)
	}
	return nil
}

// gridSide returns the integer square root of n, or -1 when n is not
// a perfect square.
func gridSide(n int) int {
	for s := 1; s*s <= n; s++ {
		if s*s == n {
			return s
		}
	}
	return -1
}

// Session is one resident streamed-labeling computation. Everything
// past lock is guarded by it: batches against one session are
// serialized, sessions against each other are independent.
type Session struct {
	id      string
	spec    *SessionSpec
	created time.Time

	lock     sync.Mutex
	lastUsed time.Time

	// Exactly one engine is non-nil.
	pinc *packed.Incremental
	sinc *graph.Incremental
	m    *core.Machine
	key  mcache.Key

	// Update generation state: the RNG that continues the stream, the
	// generator's shadow graph (non-grid) or the pixel image (grid).
	stream *workload.Graph
	img    *workload.Image
	rng    *workload.RNG

	// Fault-arrival composition: the session-wide schedule (times on
	// the session clock) and how many of its events finished batches
	// have consumed.
	sched  *fault.Schedule
	cursor int

	clock   vlsi.Time
	area    vlsi.Area
	batches int
	updates int
	failed  error
	closed  bool

	// history records every applied update request, in order, for
	// fault-bearing sessions only: their machine health ledger is
	// observable in reports, so snapshot compaction preserves the full
	// input stream and recovery replays it from origin.
	history []*updateRequest
}

// sessionTable is the server's session registry. reserved counts
// creations that passed the capacity gate but have not been inserted
// yet, so concurrent creates cannot overshoot MaxSessions.
type sessionTable struct {
	mu       sync.Mutex
	byID     map[string]*Session
	seq      uint64
	reserved int
}

// releaseSession closes the session and returns its machine to the
// session cache (which drops errored or fault-mutated machines on its
// own).
func (s *Server) releaseSession(sess *Session) {
	sess.lock.Lock()
	m := sess.m
	sess.m = nil
	sess.closed = true
	sess.lock.Unlock()
	if m != nil {
		s.scache.Return(sess.key, m)
	}
}

func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// SessionCount returns the number of live sessions (metrics gauge).
func (s *Server) SessionCount() int {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	return len(s.sess.byID)
}

// handleSessions is POST /sessions: check out a session, run the
// initial labeling and answer with the batch-0 report.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeShed(w, http.StatusMethodNotAllowed, "invalid", "POST only", "", 0)
		return
	}
	if s.pool.Draining() {
		s.metrics.add(func(m *Metrics) { m.rejectedDrain++ })
		writeShed(w, http.StatusServiceUnavailable, "draining", "server is draining", "", time.Second)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	var spec SessionSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	if err := spec.Validate(); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	if spec.Client == "" {
		spec.Client = r.Header.Get("X-Client-ID")
	}
	key, fl, ok := s.claimKey(w, r, "", "")
	if !ok {
		return
	}
	defer s.idem.Resolve(key, fl, nil, nil)
	if ok, retry := s.fairness.Allow(spec.Client); !ok {
		s.metrics.add(func(m *Metrics) { m.shedRateLimited++ })
		writeShed(w, http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("client %q over rate", spec.Client), "", retry)
		return
	}

	s.sess.mu.Lock()
	if len(s.sess.byID)+s.sess.reserved >= s.cfg.MaxSessions {
		s.sess.mu.Unlock()
		s.metrics.add(func(m *Metrics) { m.shedSessionsFull++ })
		writeShed(w, http.StatusTooManyRequests, "sessions_full",
			fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions), "", s.retryAfterFull())
		return
	}
	s.sess.reserved++
	s.sess.seq++
	id := fmt.Sprintf("s-%d", s.sess.seq)
	s.sess.mu.Unlock()

	s.sessInflight.Add(1)
	defer s.sessInflight.Done()

	// Intent first: the create is durable before it executes, so a
	// crash mid-build either lost an unacknowledged attempt (replay
	// re-creates it) or nothing at all.
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	if err := s.journalRecord(&walRecord{T: "create", SID: id, Key: key, Spec: &spec}); err != nil {
		s.sess.mu.Lock()
		s.sess.reserved--
		s.sess.mu.Unlock()
		writeShed(w, http.StatusInternalServerError, "failed", err.Error(), "", 0)
		return
	}

	sess, rep, status, msg := s.createSession(r.Context(), id, &spec)
	s.sess.mu.Lock()
	s.sess.reserved--
	if sess != nil {
		s.sess.byID[id] = sess
	}
	s.sess.mu.Unlock()
	if sess == nil {
		// Journaled intent without a session: creation fails the same
		// way on replay, so recovery skips it; the key is released so a
		// retry gets a real attempt.
		writeShed(w, status, "failed", msg, "", 0)
		return
	}
	s.metrics.add(func(m *Metrics) { m.sessionsCreated++ })
	out := renderJSON(rep)
	s.publish(key, fl, http.StatusOK, out)
	writeRendered(w, http.StatusOK, out)
}

// createSession builds the session's workload and engine and runs the
// initial labeling. On failure the machine (if any) is dropped back to
// the cache.
func (s *Server) createSession(ctx context.Context, id string, spec *SessionSpec) (*Session, *report.Report, int, string) {
	rs := spec.job().spec()
	rng := workload.NewRNG(spec.Seed)
	var g *workload.Graph
	var img *workload.Image
	if spec.Grid {
		side := gridSide(spec.N)
		img = rng.RandomImage(side, side, 0.5)
		g = img.Graph()
	} else {
		g = rng.Gnp(spec.N, 2.0/float64(spec.N))
	}

	now := s.now()
	sess := &Session{
		id: id, spec: spec, created: now, lastUsed: now,
		img: img, rng: rng, key: rs.Key(),
	}
	if !spec.Grid {
		sess.stream = g.Clone()
	}

	if rs.Packed() {
		eng, err := rs.Engine()
		if err != nil {
			return nil, nil, http.StatusInternalServerError, err.Error()
		}
		var t0 vlsi.Time
		sess.pinc, t0 = packed.NewIncremental(eng, g, 0)
		sess.clock = t0
		sess.area = eng.Area()
		return sess, s.sessionReport(sess, 0, t0, graph.BatchStats{}, nil, 0), 0, ""
	}

	m, err := s.scache.CheckoutContext(ctx, sess.key, rs.Build)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err.Error()
	}
	if spec.Faults > 0 {
		if err := m.InjectFaults(rs.FaultPlan()); err != nil {
			s.scache.Return(sess.key, m)
			return nil, nil, http.StatusInternalServerError, err.Error()
		}
	}
	var t0 vlsi.Time
	sess.sinc, t0 = graph.NewIncremental(m, g, 0)
	if err := m.Err(); err != nil {
		s.scache.Return(sess.key, m)
		return nil, nil, http.StatusInternalServerError, err.Error()
	}
	sess.m = m
	sess.clock = t0
	sess.area = m.Area()
	if spec.Events > 0 {
		// Arrivals land across the update phase: a window of eight
		// initial-labeling durations starting at the checkout clock.
		base := fault.RandomSchedule(spec.N, spec.Events, 8*t0, spec.Seed)
		sess.sched = fault.NewSchedule(base.Seed)
		for _, e := range base.Events {
			sess.sched.Add(e.At+t0, e.Site)
		}
		sess.sched.Sort()
	}
	return sess, s.sessionReport(sess, 0, t0, graph.BatchStats{}, nil, 0), 0, ""
}

// sessionReport builds the shared-schema report for batch b (0 = the
// checkout/initial labeling): Time is the batch's simulated duration,
// HealthyTime the session clock after it, Events the arrivals
// delivered during it.
func (s *Server) sessionReport(sess *Session, batch int, dur vlsi.Time, st graph.BatchStats, runErr error, delivered int) *report.Report {
	spec := sess.spec
	rs := spec.job().spec()
	metric := vlsi.Metric{Area: sess.area, Time: dur}
	rep := &report.Report{
		Alg: "cc", Network: rs.NetworkName(), Model: rs.DelayModel().Name(), N: spec.N, Seed: spec.Seed,
		Time: int64(dur), Area: int64(sess.area), AT2: metric.AT2(),
		HealthyTime: int64(sess.clock),
		Faults:      spec.Faults,
		Events:      delivered,
		Recovered:   runErr == nil,
		SessionID:   sess.id,
		Batch:       batch,
		Updates:     st.Updates,
		Affected:    st.Affected,
		Components:  distinctLabels(sess.labels()),
	}
	if sess.m != nil && (spec.Faults > 0 || spec.Events > 0) {
		rep.Health = report.HealthOf(sess.m.Health())
	}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	return rep
}

// labels returns the committed labels of whichever engine is live.
func (sess *Session) labels() []int64 {
	if sess.pinc != nil {
		return sess.pinc.Labels()
	}
	return sess.sinc.Labels()
}

func distinctLabels(labels []int64) int {
	seen := make(map[int64]bool, len(labels))
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// updateRequest is the POST /sessions/{id}/updates body: either an
// explicit update list or a server-generated batch of count updates
// (pixel flips on grid sessions, random edge toggles otherwise).
type updateRequest struct {
	Updates []updateSpec `json:"updates,omitempty"`
	Count   int          `json:"count,omitempty"`
}

type updateSpec struct {
	U   int  `json:"u"`
	V   int  `json:"v"`
	Add bool `json:"add"`
}

// handleSession routes /sessions/{id} (GET info, DELETE close) and
// /sessions/{id}/updates (POST one batch).
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeShed(w, http.StatusNotFound, "invalid", "missing session id", "", 0)
		return
	}
	sess := s.lookupSession(id)
	if sess == nil {
		writeShed(w, http.StatusNotFound, "invalid", fmt.Sprintf("no session %q", id), "", 0)
		return
	}

	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.writeSessionInfo(w, sess)
	case sub == "" && r.Method == http.MethodDelete:
		s.handleDelete(w, r, sess)
	case sub == "updates" && r.Method == http.MethodPost:
		s.handleUpdates(w, r, sess)
	default:
		writeShed(w, http.StatusMethodNotAllowed, "invalid",
			"GET|DELETE /sessions/{id} or POST /sessions/{id}/updates", "", 0)
	}
}

// handleDelete closes a session, journaling the intent first so
// recovery never resurrects a closed session.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, sess *Session) {
	key, fl, ok := s.claimKey(w, r, "", "")
	if !ok {
		return
	}
	defer s.idem.Resolve(key, fl, nil, nil)
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	if err := s.journalRecord(&walRecord{T: "delete", SID: sess.id, Key: key}); err != nil {
		writeShed(w, http.StatusInternalServerError, "failed", err.Error(), "", 0)
		return
	}
	s.sess.mu.Lock()
	delete(s.sess.byID, sess.id)
	s.sess.mu.Unlock()
	s.releaseSession(sess)
	s.metrics.add(func(m *Metrics) { m.sessionsClosed++ })
	body := renderJSON(map[string]string{"status": "closed", "session_id": sess.id})
	s.publish(key, fl, http.StatusOK, body)
	writeRendered(w, http.StatusOK, body)
}

// sessionInfo is the GET /sessions/{id} body.
type sessionInfo struct {
	SessionID  string `json:"session_id"`
	N          int    `json:"n"`
	Packed     bool   `json:"packed"` // the engine that runs, not the spec's flag
	Grid       bool   `json:"grid"`
	Clock      int64  `json:"clock_bit_times"`
	Batches    int    `json:"batches"`
	Updates    int    `json:"updates"`
	Components int    `json:"components"`
	Failed     string `json:"failed,omitempty"`
}

func (s *Server) writeSessionInfo(w http.ResponseWriter, sess *Session) {
	sess.lock.Lock()
	info := sessionInfo{
		SessionID: sess.id, N: sess.spec.N, Packed: sess.pinc != nil, Grid: sess.spec.Grid,
		Clock: int64(sess.clock), Batches: sess.batches, Updates: sess.updates,
		Components: distinctLabels(sess.labels()),
	}
	if sess.failed != nil {
		info.Failed = sess.failed.Error()
	}
	sess.lock.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// validateUpdateRequest checks the batch shape against the session
// without mutating anything — validation must precede the journal
// intent so malformed requests never enter the WAL.
func validateUpdateRequest(sess *Session, req *updateRequest) error {
	if req.Count < 0 || (len(req.Updates) == 0) == (req.Count == 0) {
		return fmt.Errorf("provide exactly one of a non-empty updates list or a positive count")
	}
	if req.Count > 0 {
		return nil
	}
	if sess.img != nil {
		return fmt.Errorf("grid sessions generate their own pixel updates; use count")
	}
	for _, u := range req.Updates {
		if u.U < 0 || u.U >= sess.spec.N || u.V < 0 || u.V >= sess.spec.N || u.U == u.V {
			return fmt.Errorf("update {%d,%d} out of range for n=%d", u.U, u.V, sess.spec.N)
		}
	}
	return nil
}

// handleUpdates applies one update batch to the session and answers
// with the per-batch report. The batch is journaled before it touches
// the engine; a retried Idempotency-Key answers with the original
// response bytes verbatim.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request, sess *Session) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	var req updateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	if err := validateUpdateRequest(sess, &req); err != nil {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid", err.Error(), "", 0)
		return
	}
	key, fl, ok := s.claimKey(w, r, "", "")
	if !ok {
		return
	}
	defer s.idem.Resolve(key, fl, nil, nil)
	if s.pool.Draining() {
		s.metrics.add(func(m *Metrics) { m.rejectedDrain++ })
		writeShed(w, http.StatusServiceUnavailable, "draining", "server is draining", "", time.Second)
		return
	}

	s.sessInflight.Add(1)
	defer s.sessInflight.Done()

	s.jmu.RLock()
	defer s.jmu.RUnlock()
	sess.lock.Lock()
	defer sess.lock.Unlock()
	if sess.closed {
		writeShed(w, http.StatusGone, "invalid", "session closed", "", 0)
		return
	}
	if sess.failed != nil {
		writeShed(w, http.StatusConflict, "failed",
			fmt.Sprintf("session failed: %v", sess.failed), "", 0)
		return
	}
	if err := s.journalRecord(&walRecord{T: "update", SID: sess.id, Key: key, Req: &req}); err != nil {
		writeShed(w, http.StatusInternalServerError, "failed", err.Error(), "", 0)
		return
	}

	rep, status := s.applyUpdateLocked(sess, &req)
	out := renderJSON(rep)
	// Both 200 and the deterministic 500 are executed outcomes: journal
	// the bytes and publish them for retries.
	s.publish(key, fl, status, out)
	writeRendered(w, status, out)
}

// applyUpdateLocked materializes and applies one validated batch;
// callers hold sess.lock (and, when journaling, jmu.RLock). It is the
// single execution path shared by live traffic and recovery replay —
// which is what makes replay bit-identical to the original run.
func (s *Server) applyUpdateLocked(sess *Session, req *updateRequest) (*report.Report, int) {
	sess.lastUsed = s.now()
	if sess.faultBearing() {
		sess.history = append(sess.history, req)
	}

	// Materialize the batch.
	var batch []workload.EdgeUpdate
	if req.Count > 0 {
		if sess.img != nil {
			batch = sess.rng.PixelBatch(sess.img, req.Count)
		} else {
			batch = sess.rng.UpdateBatch(sess.stream, req.Count)
		}
	} else {
		for _, u := range req.Updates {
			batch = append(batch, workload.EdgeUpdate{U: u.U, V: u.V, Add: u.Add})
			// Keep the generator's shadow coherent with explicit edits.
			sess.stream.Adj[u.U][u.V] = u.Add
			sess.stream.Adj[u.V][u.U] = u.Add
		}
	}

	before := sess.clock
	var done vlsi.Time
	var st graph.BatchStats
	delivered := 0
	var runErr error
	switch {
	case sess.pinc != nil:
		_, done = sess.pinc.ApplyBatch(batch, before)
		st = sess.pinc.Stats()
	case sess.sched != nil && sess.cursor < len(sess.sched.Events):
		// Compose the remaining fault arrivals with this batch on the
		// session clock.
		rem := fault.NewSchedule(sess.sched.Seed)
		for _, e := range sess.sched.Events[sess.cursor:] {
			rem.Add(e.At, e.Site)
		}
		prog, out := resilience.IncrementalBatchProgram(sess.sinc, batch)
		done, runErr = resilience.Run(sess.m, rem, prog, before, resilience.Options{})
		if runErr == nil {
			out()
			st = sess.sinc.Stats()
			for sess.cursor < len(sess.sched.Events) && sess.sched.Events[sess.cursor].At <= done {
				sess.cursor++
				delivered++
			}
		}
	default:
		_, done = sess.sinc.ApplyBatch(batch, before)
		st = sess.sinc.Stats()
		runErr = sess.m.Err()
	}

	if runErr != nil {
		sess.failed = runErr
		s.metrics.add(func(m *Metrics) { m.giveUps++ })
		return s.sessionReport(sess, sess.batches+1, 0, st, runErr, delivered),
			http.StatusInternalServerError
	}
	sess.clock = done
	sess.batches++
	sess.updates += len(batch)
	s.metrics.add(func(m *Metrics) {
		m.sessionBatches++
		m.sessionUpdates += int64(len(batch))
	})
	return s.sessionReport(sess, sess.batches, done-before, st, nil, delivered), http.StatusOK
}

// waitSessions waits (bounded by done) for in-flight session
// requests to finish.
func (s *Server) waitSessions(done <-chan struct{}) {
	waited := make(chan struct{})
	go func() {
		s.sessInflight.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-done:
	}
}

// closeSessions releases every session; the tail of the server's
// shutdown ladder. Drain runs it AFTER the final journal compaction —
// graceful shutdown does not journal deletions, so a restart recovers
// the sessions from the snapshot.
func (s *Server) closeSessions() {
	s.sess.mu.Lock()
	all := make([]*Session, 0, len(s.sess.byID))
	for id, sess := range s.sess.byID {
		all = append(all, sess)
		delete(s.sess.byID, id)
	}
	s.sess.mu.Unlock()
	for _, sess := range all {
		s.releaseSession(sess)
		s.metrics.add(func(m *Metrics) { m.sessionsClosed++ })
	}
}
