package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/rescache"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// walRecord is one journaled mutation (or its outcome). Every admitted
// session mutation — create, update batch, delete/eviction — is
// appended and fsynced BEFORE it executes, so a crash can lose an
// unacknowledged attempt but never an acknowledged one; recovery
// re-executes the intents in order. Jobs are stateless and journal no
// intent. Result records carry the exact response bytes of keyed
// mutations and keyed jobs so a retried idempotency key answers
// byte-for-byte without re-executing.
type walRecord struct {
	T string `json:"t"` // create | update | delete | evict | result

	SID  string         `json:"sid,omitempty"`
	Key  string         `json:"key,omitempty"`
	Spec *SessionSpec   `json:"spec,omitempty"` // create
	Req  *updateRequest `json:"req,omitempty"`  // update

	Status int    `json:"status,omitempty"` // result
	Body   []byte `json:"body,omitempty"`   // result (exact response bytes)
}

// serverSnap is the compaction snapshot: everything recovery needs
// without replaying the truncated prefix — the session registry, the
// id sequence, and the published idempotency answers.
type serverSnap struct {
	Seq      uint64         `json:"seq"`
	Dedup    []dedupSnap    `json:"dedup,omitempty"`
	Sessions []*sessionSnap `json:"sessions,omitempty"`
}

// dedupSnap is one stored idempotency answer in the snapshot, oldest
// first. Older snapshots also carry a "synth" field, which decoding
// ignores.
type dedupSnap struct {
	Key    string `json:"key"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

// idemBudget bounds the bytes of idempotency answers s.idem keeps. A
// retry is deduplicated only while its key's answer is resident: once
// the answer is evicted, least recently used first, the retry executes
// again and applies a second batch or creates a second session. So the
// window must outlast any plausible client retry horizon. Keyed
// {"count":4} updates on grid n=1024 and Gnp n=64 sessions answer with
// 303 B on average, so 8,192 answers need about 2.5 MiB; 3 MiB keeps
// about 10,000. The budget is its own, not the result cache's, so a
// flood of unique specs never evicts a promised answer.
const idemBudget = 3 << 20

// storeAnswer and loadAnswer are the one encoding of an idempotency
// answer in s.idem: the HTTP status in two big-endian bytes ahead of
// the exact response body.
func storeAnswer(status int, body []byte) []byte {
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 2+len(body)), uint16(status))
	return append(b, body...)
}

func loadAnswer(b []byte) (status int, body []byte) {
	return int(binary.BigEndian.Uint16(b)), b[2:]
}

// sessionSnap is one session in the snapshot. Healthy sessions store
// compact committed state (graph + labels + generator state) and
// resume at zero simulated cost; fault-bearing sessions store their
// full input history and replay from origin, because the machine's
// fault/health ledger is observable in their reports and replay is the
// only faithful way to reproduce it.
type sessionSnap struct {
	ID   string       `json:"id"`
	Spec *SessionSpec `json:"spec"`

	// Compact state (healthy sessions).
	State   *resilience.SessionState `json:"state,omitempty"`
	RNG     string                   `json:"rng,omitempty"` // uint64 in decimal (JSON numbers lose precision past 2^53)
	Clock   int64                    `json:"clock,omitempty"`
	Batches int                      `json:"batches,omitempty"`
	Updates int                      `json:"updates,omitempty"`
	Img     *imageSnap               `json:"img,omitempty"`

	// Input history (fault-bearing sessions): every update request in
	// arrival order, replayed from origin through the live engines.
	History []*updateRequest `json:"history,omitempty"`
}

// imageSnap bit-packs a grid session's pixel image (LSB-first, row
// major), mirroring the adjacency encoding in resilience.SessionState.
type imageSnap struct {
	R  int    `json:"r"`
	C  int    `json:"c"`
	On []byte `json:"on"`
}

func captureImage(im *workload.Image) *imageSnap {
	s := &imageSnap{R: im.R, C: im.C, On: make([]byte, (len(im.On)+7)/8)}
	for i, on := range im.On {
		if on {
			s.On[i/8] |= 1 << (i % 8)
		}
	}
	return s
}

func (s *imageSnap) restore() (*workload.Image, error) {
	if s.R <= 0 || s.C <= 0 || len(s.On) != (s.R*s.C+7)/8 {
		return nil, fmt.Errorf("image snapshot shape %dx%d with %d bytes", s.R, s.C, len(s.On))
	}
	im := workload.NewImage(s.R, s.C)
	for i := range im.On {
		im.On[i] = s.On[i/8]&(1<<(i%8)) != 0
	}
	return im, nil
}

// renderJSON produces exactly the bytes writeJSON would send — the
// indented encoding with a trailing newline — so stored idempotent
// responses replay byte-for-byte.
func renderJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

func writeRendered(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// journalRecord appends one record to the WAL and waits for its fsync.
// A nil journal (journaling off) and recovery replay (the records
// being re-executed are already durable) are no-ops. An append error
// means the mutation is NOT durable — the caller must fail the request
// rather than execute an unjournaled mutation.
func (s *Server) journalRecord(rec *walRecord) error {
	if s.jl == nil || s.recovering {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := s.jl.Append(payload); err != nil {
		s.metrics.add(func(m *Metrics) { m.journalErrors++ })
		return err
	}
	return nil
}

// claimKey claims a request's idempotency key in s.idem: the
// Idempotency-Key header, or (for jobs) the idem_key body field when
// the header is absent. It returns ok when the caller holds the key
// (or sent none) and must answer the request itself; the caller then
// defers s.idem.Resolve(key, fl, nil, nil), which releases a key its
// attempt never published so the retry gets a real attempt (after
// publish it does nothing: Resolve's first call wins). It returns
// !ok when it has already answered: with the key's stored bytes,
// verbatim, marked by the Idempotent-Replay header so clients (and the
// fairness ledger in otload) can count hits without parsing bodies;
// with a 400 for a key too long to store, whose retries could never be
// deduplicated; or with a 504 when the request's context ended while
// another holder of the key was still executing.
func (s *Server) claimKey(w http.ResponseWriter, r *http.Request, bodyKey, jobID string) (string, *rescache.Flight, bool) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		key = bodyKey
	}
	if key == "" {
		return "", nil, true
	}
	if len(key) > rescache.MaxKeyLen {
		s.metrics.add(func(m *Metrics) { m.invalid++ })
		writeShed(w, http.StatusBadRequest, "invalid",
			fmt.Sprintf("idempotency key longer than %d bytes", rescache.MaxKeyLen), jobID, 0)
		return key, nil, false
	}
	for {
		stored, fl, leader := s.idem.Lookup(key)
		if leader {
			return key, fl, true
		}
		if stored == nil {
			select {
			case <-fl.Done():
				_, stored = fl.Value()
			case <-r.Context().Done():
				writeShed(w, http.StatusGatewayTimeout, "deadline", "deadline exceeded", jobID, 0)
				return key, nil, false
			}
			if stored == nil {
				continue // the leader released the key: claim it again
			}
		}
		w.Header().Set("Idempotent-Replay", "true")
		s.metrics.add(func(m *Metrics) { m.dedupHits++ })
		status, body := loadAnswer(stored)
		writeRendered(w, status, body)
		return key, nil, false
	}
}

// publish journals a keyed request's executed response and resolves
// the key's flight with it, answering its waiters and retries; without
// a key it does nothing. Callers hold jmu for reading.
func (s *Server) publish(key string, fl *rescache.Flight, status int, body []byte) {
	if key == "" {
		return
	}
	s.journalRecord(&walRecord{T: "result", Key: key, Status: status, Body: body})
	s.idem.Resolve(key, fl, nil, storeAnswer(status, body))
}

// CompactNow captures the full service state as a snapshot and
// truncates the replayed journal prefix. It excludes every in-flight
// mutation (jmu writer side), so the snapshot is consistent: any
// record in a truncated segment is covered by the snapshot, any record
// appended after it survives in the fresh segment.
func (s *Server) CompactNow() error {
	if s.jl == nil {
		return nil
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()

	s.sess.mu.Lock()
	snap := serverSnap{Seq: s.sess.seq}
	sessions := make([]*Session, 0, len(s.sess.byID))
	for _, sess := range s.sess.byID {
		sessions = append(sessions, sess)
	}
	s.sess.mu.Unlock()

	for _, sess := range sessions {
		if ss := s.captureSession(sess); ss != nil {
			snap.Sessions = append(snap.Sessions, ss)
		}
	}
	s.idem.Walk(func(key string, b []byte) {
		status, body := loadAnswer(b)
		snap.Dedup = append(snap.Dedup, dedupSnap{Key: key, Status: status, Body: body})
	})
	blob, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := s.jl.Compact(blob); err != nil {
		s.metrics.add(func(m *Metrics) { m.journalErrors++ })
		return err
	}
	return nil
}

// captureSession snapshots one session: compact state when healthy,
// input history when fault-bearing. Failed sessions without a history
// are dropped from the snapshot (the session is unusable; recovery
// would only resurrect the tombstone).
func (s *Server) captureSession(sess *Session) *sessionSnap {
	sess.lock.Lock()
	defer sess.lock.Unlock()
	if sess.closed {
		return nil
	}
	ss := &sessionSnap{ID: sess.id, Spec: sess.spec}
	if sess.faultBearing() {
		ss.History = append([]*updateRequest(nil), sess.history...)
		return ss
	}
	if sess.failed != nil {
		return nil
	}
	g := sess.graph()
	ss.State = resilience.CaptureSession(g, sess.labels())
	ss.RNG = strconv.FormatUint(sess.rng.State(), 10)
	ss.Clock = int64(sess.clock)
	ss.Batches = sess.batches
	ss.Updates = sess.updates
	if sess.img != nil {
		ss.Img = captureImage(sess.img)
	}
	return ss
}

// faultBearing reports whether the session's reports expose machine
// fault/health state, which compact snapshots cannot reproduce —
// these sessions snapshot as input history and replay from origin.
func (sess *Session) faultBearing() bool {
	return sess.spec.Faults > 0 || sess.spec.Events > 0
}

// graph returns the session's committed graph: the scalar engine's
// shadow, or (packed) the generator-side mirror that tracks it
// update-for-update.
func (sess *Session) graph() *workload.Graph {
	if sess.sinc != nil {
		return sess.sinc.Graph()
	}
	if sess.img != nil {
		return sess.img.Graph()
	}
	return sess.stream
}
