package server

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/packed"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Open assembles a started server like New and, when cfg.JournalDir is
// set, makes it crash-safe: every admitted mutation is journaled
// before it executes, and this call recovers the previous process's
// state — load the latest snapshot, re-execute the journaled tail in
// admission order through the live engines, and assert the recovered
// labels bit-identical to an uninterrupted run (the union-find oracle
// is the uninterrupted reference: CONNECT labels are canonical).
// Because the machines are deterministic, replay charges exactly the
// simulated bit-times the original run charged — recovery adds zero.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := newServer(cfg)
	if cfg.JournalDir != "" {
		jl, err := journal.Open(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.jl = jl
		if err := s.recover(); err != nil {
			jl.Close()
			return nil, fmt.Errorf("server: recovery: %w", err)
		}
	}
	s.startSweeper()
	return s, nil
}

// recover rebuilds service state from the journal: snapshot, then the
// record tail, then the label-identity assertion.
func (s *Server) recover() error {
	start := time.Now()
	s.recovering = true
	defer func() { s.recovering = false }()

	if blob, ok := s.jl.Snapshot(); ok {
		if err := s.restoreSnapshot(blob); err != nil {
			return err
		}
	}
	n, err := s.jl.Replay(s.replayRecord)
	if err != nil {
		return err
	}
	if err := s.verifyRecovered(); err != nil {
		return err
	}
	ms := time.Since(start).Milliseconds()
	recovered := int64(s.SessionCount())
	s.metrics.add(func(m *Metrics) {
		m.recordsReplayed = int64(n)
		m.recoveryMS = ms
		m.sessionsRecovered = recovered
	})
	return nil
}

// noteSessionID advances the id sequence past a recovered session id,
// so post-recovery creations never collide with journaled ones.
func (s *Server) noteSessionID(id string) {
	if !strings.HasPrefix(id, "s-") {
		return
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "s-"), 10, 64)
	if err != nil {
		return
	}
	s.sess.mu.Lock()
	if n > s.sess.seq {
		s.sess.seq = n
	}
	s.sess.mu.Unlock()
}

func (s *Server) restoreSnapshot(blob []byte) error {
	var snap serverSnap
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	s.sess.mu.Lock()
	if snap.Seq > s.sess.seq {
		s.sess.seq = snap.Seq
	}
	s.sess.mu.Unlock()
	for _, d := range snap.Dedup {
		if d.Key != "" && len(d.Body) > 0 {
			s.idem.Put(d.Key, storeAnswer(d.Status, d.Body))
		}
	}
	for _, ss := range snap.Sessions {
		if ss == nil || ss.Spec == nil {
			continue
		}
		if err := s.restoreSession(ss); err != nil {
			return fmt.Errorf("snapshot session %s: %w", ss.ID, err)
		}
	}
	return nil
}

// restoreSession rebuilds one snapshotted session: fault-bearing ones
// replay their input history from origin (the health ledger is
// observable, so replay is the only faithful reconstruction); healthy
// ones resume from compact committed state at zero simulated cost.
func (s *Server) restoreSession(ss *sessionSnap) error {
	s.noteSessionID(ss.ID)
	if s.SessionCount() >= s.cfg.MaxSessions {
		s.metrics.add(func(m *Metrics) { m.sessionsDroppedRecovery++ })
		return nil
	}

	if len(ss.History) > 0 || ss.Spec.Faults > 0 || ss.Spec.Events > 0 {
		sess, _, _, msg := s.createSession(context.Background(), ss.ID, ss.Spec)
		if sess == nil {
			return fmt.Errorf("history replay create: %s", msg)
		}
		s.insertSession(sess)
		for _, req := range ss.History {
			if req == nil {
				continue
			}
			sess.lock.Lock()
			if sess.closed || sess.failed != nil || validateUpdateRequest(sess, req) != nil {
				sess.lock.Unlock()
				continue
			}
			s.applyUpdateLocked(sess, req)
			sess.lock.Unlock()
		}
		return nil
	}

	if ss.State == nil {
		return fmt.Errorf("no state and no history")
	}
	g, err := ss.State.Graph()
	if err != nil {
		return err
	}
	// The bit-identity assertion: snapshotted labels must equal what an
	// uninterrupted run holds — the canonical (oracle) labeling of g.
	if err := ss.State.VerifyLabels(g); err != nil {
		return err
	}
	rngState, err := strconv.ParseUint(ss.RNG, 10, 64)
	if err != nil {
		return fmt.Errorf("rng state %q: %w", ss.RNG, err)
	}
	spec := ss.Spec
	rs := spec.job().spec()
	now := s.now()
	sess := &Session{
		id: ss.ID, spec: spec, created: now, lastUsed: now,
		key: rs.Key(), rng: workload.NewRNG(spec.Seed),
	}
	sess.rng.SetState(rngState)
	if spec.Grid {
		if ss.Img == nil {
			return fmt.Errorf("grid session without image state")
		}
		im, err := ss.Img.restore()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(im.Graph().Adj, g.Adj) {
			return fmt.Errorf("image state disagrees with adjacency state")
		}
		sess.img = im
	} else {
		sess.stream = g.Clone()
	}
	// A compact snapshot is only written for a session with no faults
	// and no events, which is exactly a spec run.Spec.Packed sends to
	// the packed engine.
	eng, err := rs.Engine()
	if err != nil {
		return err
	}
	sess.pinc = packed.ResumeIncremental(eng, g, ss.State.Labels)
	sess.area = eng.Area()
	sess.clock = vlsi.Time(ss.Clock)
	sess.batches = ss.Batches
	sess.updates = ss.Updates
	s.insertSession(sess)
	return nil
}

func (s *Server) insertSession(sess *Session) {
	s.sess.mu.Lock()
	s.sess.byID[sess.id] = sess
	s.sess.mu.Unlock()
}

func (s *Server) lookupSession(id string) *Session {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	return s.sess.byID[id]
}

// replayRecord re-executes one journaled mutation. Damaged or
// out-of-context records are skipped and counted, never half-applied
// and never fatal: a record that passed its CRC but fails JSON or
// semantic checks cannot be trusted to rebuild state, but it must not
// take recovery down with it.
func (s *Server) replayRecord(payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		s.metrics.add(func(m *Metrics) { m.recordsSkipped++ })
		return nil
	}
	switch rec.T {
	case "create":
		s.replayCreate(&rec)
	case "update":
		s.replayUpdate(&rec)
	case "delete", "evict":
		s.replayDelete(&rec)
	case "job":
		// A job intent from an older binary: jobs are stateless, and a
		// keyed job's answer is its result record.
	case "result":
		if rec.Key != "" && len(rec.Body) > 0 {
			// The executed outcome's exact bytes survive: a retried key
			// answers byte-for-byte, superseding any answer synthesized
			// from the intent during this replay.
			s.idem.Put(rec.Key, storeAnswer(rec.Status, rec.Body))
		}
	default:
		s.metrics.add(func(m *Metrics) { m.recordsSkipped++ })
	}
	return nil
}

func (s *Server) replayCreate(rec *walRecord) {
	if rec.SID == "" || rec.Spec == nil {
		s.metrics.add(func(m *Metrics) { m.recordsSkipped++ })
		return
	}
	s.noteSessionID(rec.SID)
	if s.lookupSession(rec.SID) != nil || rec.Spec.Validate() != nil ||
		s.SessionCount() >= s.cfg.MaxSessions {
		s.metrics.add(func(m *Metrics) { m.recordsSkipped++ })
		return
	}
	sess, rep, status, msg := s.createSession(context.Background(), rec.SID, rec.Spec)
	if sess != nil {
		s.insertSession(sess)
	}
	if rec.Key == "" {
		return
	}
	// Synthesize the lost response for the retried key: the original
	// bytes were never journaled (the crash hit between the intent and
	// the result record), so the replayed report stands in, marked.
	var body []byte
	if sess != nil {
		rep.Replayed, rep.Deduped = true, true
		status = 200
		body = renderJSON(rep)
	} else {
		body = renderJSON(shedError{Error: msg, Reason: "failed"})
	}
	s.synthesize(rec.Key, status, body)
}

// synthesize stores the answer recovery rebuilt for a keyed intent
// whose result record was lost with the process.
func (s *Server) synthesize(key string, status int, body []byte) {
	s.idem.Put(key, storeAnswer(status, body))
	s.metrics.add(func(m *Metrics) { m.dedupSynthesized++ })
}

func (s *Server) replayUpdate(rec *walRecord) {
	sess := s.lookupSession(rec.SID)
	if sess == nil || rec.Req == nil {
		s.metrics.add(func(m *Metrics) { m.recordsSkipped++ })
		return
	}
	sess.lock.Lock()
	if sess.closed || sess.failed != nil || validateUpdateRequest(sess, rec.Req) != nil {
		sess.lock.Unlock()
		s.metrics.add(func(m *Metrics) { m.recordsSkipped++ })
		return
	}
	rep, status := s.applyUpdateLocked(sess, rec.Req)
	sess.lock.Unlock()
	if rec.Key == "" {
		return
	}
	rep.Replayed, rep.Deduped = true, true
	s.synthesize(rec.Key, status, renderJSON(rep))
}

func (s *Server) replayDelete(rec *walRecord) {
	sess := s.lookupSession(rec.SID)
	if sess == nil {
		return
	}
	s.sess.mu.Lock()
	delete(s.sess.byID, rec.SID)
	s.sess.mu.Unlock()
	s.releaseSession(sess)
	if rec.T == "delete" && rec.Key != "" {
		body := renderJSON(map[string]string{
			"deduped": "true", "replayed": "true",
			"session_id": rec.SID, "status": "closed",
		})
		s.synthesize(rec.Key, 200, body)
	}
}

// verifyRecovered asserts every recovered session's labels are
// bit-identical to an uninterrupted run's: CONNECT labels are
// canonical (component minima), so the union-find oracle over the
// recovered graph IS the uninterrupted answer. A mismatch means the
// journal and the engines disagree — refusing to serve is the only
// safe response.
func (s *Server) verifyRecovered() error {
	s.sess.mu.Lock()
	sessions := make([]*Session, 0, len(s.sess.byID))
	for _, sess := range s.sess.byID {
		sessions = append(sessions, sess)
	}
	s.sess.mu.Unlock()
	for _, sess := range sessions {
		sess.lock.Lock()
		failed := sess.failed != nil || sess.closed
		var got, want []int64
		if !failed {
			got = sess.labels()
			want = workload.NewOracle(sess.graph()).Labels()
		}
		sess.lock.Unlock()
		if failed {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("session %s: recovered labels diverge from the uninterrupted reference", sess.id)
		}
	}
	return nil
}
