package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/report"
	"repro/internal/rescache"
)

// This file is the one job path every submission takes, single or
// array: admitJob gates, looks the spec up in the compute-once/
// serve-many result cache (internal/rescache) and enqueues; wait
// blocks on the job's own execution or its leader's flight; served
// relabels the outcome for the request answering with it. Placement in
// the ladder is deliberate: the cache is consulted AFTER draining/
// validation/breaker/fairness — so shed semantics are identical with
// the cache on or off — and BEFORE the bounded queue and machine
// checkout, so stored hits and coalesced followers never hold a worker
// slot or a machine.
//
// Orthogonality to idempotency dedup: the dedup table answers
// *retries of one client's key* with the exact bytes that client was
// first promised (its own job_id included); the result cache answers
// *any client's identical spec* with canonical bytes that each
// response re-labels with its own job_id and a cached/coalesced mark.
// A keyed request that hits the result cache still journals its
// result record and publishes its (relabelled) bytes under its key, so
// the two layers compose.

// Serving marks: how an outcome reached the request answering with
// it, also sent as the X-Result-Cache header. An execution of the
// request's own carries no mark.
const (
	markHit       = "hit"
	markCoalesced = "coalesced"
)

// outcome is how one admitted job ended: a refusal, or the executed
// result with its canonical bytes when it is cacheable.
type outcome struct {
	shed *shedOutcome
	res  result // the executed result (relayed to followers on failure)
	body []byte // canonical bytes; non-nil iff a cacheable success
	mark string // "", markHit or markCoalesced
}

// deadlineShed is the refusal of a job whose deadline (or request)
// ended before its answer arrived.
var deadlineShed = &shedOutcome{http.StatusGatewayTimeout, "deadline", "deadline exceeded", 0}

// ticket is one admitted job's claim on its answer: settled at
// admission (a shed or a stored hit), a flight to follow, or a queued
// execution this job leads.
type ticket struct {
	spec *Job
	fp   string
	fl   *rescache.Flight // the flight this job leads (qj != nil) or follows
	qj   *queuedJob
	out  *outcome // non-nil when admission already settled the job
}

// admitJob runs one job through the admission ladder, the result-cache
// lookup and the bounded queue; invalid is the job's Validate verdict.
// It never blocks.
func (s *Server) admitJob(r *http.Request, spec *Job, invalid error) *ticket {
	t := &ticket{spec: spec}
	probe, shed := s.gate(r, spec, invalid)
	if shed != nil {
		t.out = &outcome{shed: shed}
		return t
	}
	t.fp = spec.Fingerprint()
	body, fl, leader := s.resc.Lookup(t.fp)
	t.fl = fl
	if !leader {
		// A stored hit or a coalesced follower bypasses the pool — and
		// the machine cache — entirely.
		s.releaseProbe(spec, probe)
		if body != nil {
			t.out = &outcome{body: body, mark: markHit}
		}
		return t
	}
	qj, shed := s.enqueue(r, spec, probe)
	if shed != nil {
		o := s.resolve(t, outcome{shed: shed})
		t.out = &o
		return t
	}
	t.qj = qj
	return t
}

// wait blocks until the ticket's job has an outcome: its own execution
// (resolving the flight it leads) or, for a follower, its leader's,
// bounded by the job's deadline and the request's context.
func (s *Server) wait(r *http.Request, t *ticket) outcome {
	if t.out != nil {
		return *t.out
	}
	if t.qj == nil {
		var dl <-chan time.Time
		if d := t.spec.Deadline(); d > 0 {
			tm := time.NewTimer(d)
			defer tm.Stop()
			dl = tm.C
		}
		select {
		case <-t.fl.Done():
			v, _ := t.fl.Value()
			o := v.(outcome)
			o.mark = markCoalesced
			return o
		case <-dl:
		case <-r.Context().Done():
		}
		return outcome{shed: deadlineShed}
	}
	res, ok := awaitResult(t.qj)
	if !ok {
		// Deadline fired while we waited; give a raced delivery one
		// grace read before conceding 504.
		if res, ok = settleDeadline(t.qj, time.Millisecond); !ok {
			return s.resolve(t, outcome{shed: deadlineShed})
		}
	}
	return s.resolve(t, outcome{res: res})
}

// resolve hands a leader's outcome to its flight's followers and, for
// a cacheable success, stores its canonical bytes. With the result
// cache disabled there is no flight and nothing to render.
func (s *Server) resolve(t *ticket, o outcome) outcome {
	if t.fl == nil {
		return o
	}
	if o.res.rep != nil && o.res.err == nil {
		o.body = canonicalBody(o.res.rep)
	}
	s.resc.Resolve(t.fp, t.fl, o, o.body)
	return o
}

// served relabels an unrefused outcome for the request answering with
// it: an execution's own result as is; stored or coalesced canonical
// bytes decoded with this job id and the serving mark; a leader's
// failure relayed with this job id and the coalesced mark.
func served(o outcome, jobID string) (*report.Report, error) {
	switch {
	case o.mark == "":
		return o.res.rep, o.res.err
	case o.body != nil:
		rep, err := report.DecodeCompact(o.body)
		if err != nil {
			// Corrupt cached bytes would be a bug; fail the job loudly
			// rather than serve garbage.
			return nil, fmt.Errorf("result cache: stored bytes: %w", err)
		}
		rep.JobID = jobID
		rep.Cached = o.mark == markHit
		rep.Coalesced = o.mark == markCoalesced
		return rep, nil
	case o.res.rep == nil:
		return nil, o.res.err
	}
	rep := *o.res.rep
	rep.JobID = jobID
	rep.Coalesced = true
	return &rep, o.res.err
}

// writeOutcome is a single job's HTTP answer. A report is 200, even
// for unrecovered supervised runs (the report carries recovered=false
// and the error); no report is a 500, or a 504 when the job's context
// ended.
func (s *Server) writeOutcome(w http.ResponseWriter, spec *Job, key string, o outcome) {
	if o.shed != nil {
		writeShed(w, o.shed.status, o.shed.reason, o.shed.msg, spec.ID, o.shed.retry)
		return
	}
	rep, err := served(o, spec.ID)
	if rep == nil {
		msg := "execution produced no report"
		if err != nil {
			msg = err.Error()
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeShed(w, http.StatusGatewayTimeout, "deadline", msg, spec.ID, 0)
			return
		}
		writeShed(w, http.StatusInternalServerError, "failed", msg, spec.ID, 0)
		return
	}
	body := renderJSON(rep)
	if err == nil && o.mark != "" {
		w.Header().Set("X-Result-Cache", o.mark)
	}
	// A relayed failure is its leader's answer, not this request's, so
	// it is not published under the key.
	if key != "" && (err == nil || o.mark == "") {
		s.jmu.RLock()
		s.publish(key, http.StatusOK, body)
		s.jmu.RUnlock()
	}
	writeRendered(w, http.StatusOK, body)
}

// streamOutcome is one job's NDJSON line. A job's own line carries its
// report without the error text it may also hold; a follower relaying
// its leader's failure carries both.
func streamOutcome(jobID string, o outcome) streamItem {
	if o.shed != nil {
		return streamItem{JobID: jobID, Status: o.shed.reason, Error: o.shed.msg,
			RetryAfterMS: o.shed.retry.Milliseconds()}
	}
	rep, err := served(o, jobID)
	it := streamItem{JobID: jobID, Status: "ok", Report: rep}
	if rep == nil {
		it.Status = "failed"
	}
	if err != nil && (rep == nil || o.mark != "") {
		it.Error = err.Error()
	}
	return it
}

// canonicalBody encodes a successful report stripped of per-request
// transport identity — job id and every serving-mode mark — so one
// stored entry can answer any client. served re-labels it per
// response; the round trip is exact for every field. The bytes are
// the report's compact binary form (report.EncodeCompact): no
// response sends them as they are, and an entry stays resident for as
// long as the byte budget allows, so a sort's body is 29 bytes rather
// than about 165 of JSON, and a hit decodes without a JSON parse.
func canonicalBody(rep *report.Report) []byte {
	c := *rep
	c.JobID = ""
	c.Replayed, c.Deduped = false, false
	c.Cached, c.Coalesced = false, false
	return report.EncodeCompact(&c)
}
