package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms/graph"
	"repro/internal/report"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// postJSON posts v to path and returns status and body bytes.
func postJSON(t *testing.T, ts *httptest.Server, path string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// openSession creates a session and returns its checkout report.
func openSession(t *testing.T, ts *httptest.Server, spec *SessionSpec) *report.Report {
	t.Helper()
	status, body := postJSON(t, ts, "/sessions", spec)
	if status != http.StatusOK {
		t.Fatalf("create session: status %d: %s", status, body)
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode checkout report: %v\n%s", err, body)
	}
	if rep.SessionID == "" || rep.Batch != 0 {
		t.Fatalf("checkout report missing session fields: %s", body)
	}
	return &rep
}

// postBatch applies one update batch and decodes the report.
func postBatch(t *testing.T, ts *httptest.Server, id string, req updateRequest) *report.Report {
	t.Helper()
	status, body := postJSON(t, ts, "/sessions/"+id+"/updates", req)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode batch report: %v\n%s", err, body)
	}
	return &rep
}

// TestSessionMatchesLocalIncremental pins the session contract: the
// per-batch reports a scalar session streams back carry exactly the
// simulated times, update stats and component counts of a local
// incremental run fed the identical stream.
func TestSessionMatchesLocalIncremental(t *testing.T) {
	const n, seed = 16, uint64(11)
	ts := testServer(t, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: n, Seed: seed})

	// Local twin: same RNG discipline as the server.
	rng := workload.NewRNG(seed)
	g := rng.Gnp(n, 2.0/float64(n))
	stream := g.Clone()
	m, err := (&Job{Alg: "cc", N: n, Seed: seed}).spec().Build()
	if err != nil {
		t.Fatal(err)
	}
	inc, clock := graph.NewIncremental(m, g, 0)
	if rep.Time != int64(clock) || rep.HealthyTime != int64(clock) {
		t.Fatalf("checkout time %d/%d, local %d", rep.Time, rep.HealthyTime, clock)
	}

	for b := 1; b <= 5; b++ {
		batch := rng.UpdateBatch(stream, 3)
		labels, done := inc.ApplyBatch(batch, clock)
		st := inc.Stats()
		got := postBatch(t, ts, rep.SessionID, updateRequest{Count: 3})
		if got.Batch != b {
			t.Fatalf("batch index %d, want %d", got.Batch, b)
		}
		if got.Time != int64(done-clock) || got.HealthyTime != int64(done) {
			t.Fatalf("batch %d: time %d healthy %d, local %d/%d",
				b, got.Time, got.HealthyTime, int64(done-clock), int64(done))
		}
		if got.Updates != st.Updates || got.Affected != st.Affected {
			t.Fatalf("batch %d: stats %d/%d, local %+v", b, got.Updates, got.Affected, st)
		}
		if want := distinctLabels(labels); got.Components != want {
			t.Fatalf("batch %d: components %d, local %d", b, got.Components, want)
		}
		clock = done
	}

	// Explicit updates steer the same machinery and keep the stream
	// shadow coherent: toggling one edge twice is a self-cancelling
	// batch with zero net changes.
	u := updateSpec{U: 0, V: 1, Add: !stream.Adj[0][1]}
	inv := updateSpec{U: 0, V: 1, Add: !u.Add}
	got := postBatch(t, ts, rep.SessionID, updateRequest{Updates: []updateSpec{u, inv}})
	if got.Updates != 2 || got.Affected != 0 {
		t.Fatalf("self-cancelling batch: updates %d affected %d", got.Updates, got.Affected)
	}
}

// TestSessionPackedMatchesScalar pins the streamed determinism
// contract across engines: a healthy session runs packed whether or
// not its spec sets the packed flag, and its per-batch reports are
// report.Same as the ones the scalar machine's incremental labeling
// yields for the identical stream.
func TestSessionPackedMatchesScalar(t *testing.T) {
	const n, seed = 32, uint64(7)
	ts := testServer(t, Config{Workers: 2})
	plain := openSession(t, ts, &SessionSpec{N: n, Seed: seed})
	flagged := openSession(t, ts, &SessionSpec{N: n, Seed: seed, Packed: true})

	// Scalar reference, with the server's RNG discipline.
	j := &Job{Alg: "cc", N: n, Seed: seed}
	rng := workload.NewRNG(seed)
	g := rng.Gnp(n, 2.0/float64(n))
	stream := g.Clone()
	m, err := j.spec().Build()
	if err != nil {
		t.Fatal(err)
	}
	inc, clock := graph.NewIncremental(m, g, 0)
	want := func(batch int, dur vlsi.Time, st graph.BatchStats, labels []int64) *report.Report {
		metric := vlsi.Metric{Area: m.Area(), Time: dur}
		return &report.Report{
			Alg: "cc", Network: j.spec().NetworkName(), Model: j.spec().DelayModel().Name(), N: n, Seed: seed,
			Time: int64(dur), Area: int64(m.Area()), AT2: metric.AT2(),
			HealthyTime: int64(clock), Recovered: true,
			Batch: batch, Updates: st.Updates, Affected: st.Affected,
			Components: distinctLabels(labels),
		}
	}
	ref := want(0, clock, graph.BatchStats{}, inc.Labels())
	for _, got := range []*report.Report{plain, flagged} {
		if !got.Same(ref) {
			t.Fatalf("checkout report differs from scalar:\n%s", got.Diff(ref))
		}
	}
	for b := 1; b <= 6; b++ {
		labels, done := inc.ApplyBatch(rng.UpdateBatch(stream, 2), clock)
		dur := done - clock
		clock = done
		ref := want(b, dur, inc.Stats(), labels)
		for _, id := range []string{plain.SessionID, flagged.SessionID} {
			if got := postBatch(t, ts, id, updateRequest{Count: 2}); !got.Same(ref) {
				t.Fatalf("session %s batch %d differs from scalar:\n%s", id, b, got.Diff(ref))
			}
		}
	}
}

// TestSessionSupervisedDeterministic replays the same supervised spec
// twice: every per-batch report — times, health counters, delivered
// arrivals — must be bit-identical.
func TestSessionSupervisedDeterministic(t *testing.T) {
	const n, seed = 16, uint64(5)
	ts := testServer(t, Config{Workers: 2})
	spec := &SessionSpec{N: n, Seed: seed, Events: 2}
	a := openSession(t, ts, spec)
	b := openSession(t, ts, spec)
	if !a.Same(b) {
		t.Fatalf("checkout reports differ:\n%s", a.Diff(b))
	}
	for i := 1; i <= 4; i++ {
		ra := postBatch(t, ts, a.SessionID, updateRequest{Count: 2})
		rb := postBatch(t, ts, b.SessionID, updateRequest{Count: 2})
		if !ra.Same(rb) {
			t.Fatalf("batch %d reports differ:\n%s", i, ra.Diff(rb))
		}
		if ra.Health == nil {
			t.Fatalf("batch %d: supervised report dropped the health ledger", i)
		}
	}
}

// TestSessionGrid drives the pixel-image workload: the server owns
// the image, so only count batches are legal, and component counts
// stay within the vertex budget.
func TestSessionGrid(t *testing.T) {
	ts := testServer(t, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: 16, Seed: 3, Grid: true})
	if rep.Components < 1 || rep.Components > 16 {
		t.Fatalf("checkout components %d out of range", rep.Components)
	}
	for b := 1; b <= 4; b++ {
		got := postBatch(t, ts, rep.SessionID, updateRequest{Count: 2})
		if got.Components < 1 || got.Components > 16 {
			t.Fatalf("batch %d: components %d out of range", b, got.Components)
		}
	}
	status, body := postJSON(t, ts, "/sessions/"+rep.SessionID+"/updates",
		updateRequest{Updates: []updateSpec{{U: 0, V: 1, Add: true}}})
	if status != http.StatusBadRequest {
		t.Fatalf("explicit updates on a grid session: status %d: %s", status, body)
	}
}

// TestSessionTTL pins sweeper expiry: once the injected clock moves
// past SessionTTL a sweep evicts the session and counts it as expired.
// SweepInterval < 0 keeps the background goroutine out of the test;
// Sweep() is the same pass it would run.
func TestSessionTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	cfg := Config{Workers: 2, SessionTTL: time.Minute, SweepInterval: -1,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}}
	s := New(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep := openSession(t, ts, &SessionSpec{N: 8, Seed: 1})
	postBatch(t, ts, rep.SessionID, updateRequest{Count: 1})

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	s.Sweep()

	resp, err := ts.Client().Get(ts.URL + "/sessions/" + rep.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session answered %d", resp.StatusCode)
	}
	snap := s.Metrics()
	if snap.SessionsExpired != 1 || snap.SessionsActive != 0 {
		t.Fatalf("expiry counters: %+v", snap)
	}
}

// TestSessionCapacity pins the session gate: MaxSessions resident
// sessions shed further creations with sessions_full until one closes.
func TestSessionCapacity(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, MaxSessions: 2})
	a := openSession(t, ts, &SessionSpec{N: 8, Seed: 1})
	openSession(t, ts, &SessionSpec{N: 8, Seed: 2})

	status, body := postJSON(t, ts, "/sessions", &SessionSpec{N: 8, Seed: 3})
	if status != http.StatusTooManyRequests {
		t.Fatalf("third session: status %d: %s", status, body)
	}
	var shed shedError
	if err := json.Unmarshal(body, &shed); err != nil || shed.Reason != "sessions_full" {
		t.Fatalf("shed body %s (err %v)", body, err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+a.SessionID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	openSession(t, ts, &SessionSpec{N: 8, Seed: 3})
}

// TestSessionFaultyDegradesNotDiverges checks a session on a machine
// with injected dead edges: routing degrades (health ledger reports
// reroutes) but every component count still matches the healthy local
// twin fed the same stream.
func TestSessionFaultyDegradesNotDiverges(t *testing.T) {
	const n, seed = 16, uint64(9)
	ts := testServer(t, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: n, Seed: seed, Faults: 2})
	if rep.Health == nil {
		t.Fatal("faulty session checkout dropped the health ledger")
	}

	rng := workload.NewRNG(seed)
	g := rng.Gnp(n, 2.0/float64(n))
	stream := g.Clone()
	o := workload.NewOracle(g)
	if want := distinctLabels(o.Labels()); rep.Components != want {
		t.Fatalf("checkout components %d, oracle %d", rep.Components, want)
	}
	for b := 1; b <= 4; b++ {
		batch := rng.UpdateBatch(stream, 2)
		o.Apply(batch)
		got := postBatch(t, ts, rep.SessionID, updateRequest{Count: 2})
		if !got.Recovered {
			t.Fatalf("batch %d: not recovered: %s", b, got.Error)
		}
		if want := distinctLabels(o.Labels()); got.Components != want {
			t.Fatalf("batch %d: components %d, oracle %d", b, got.Components, want)
		}
	}
}

// TestSessionValidation sweeps the rejection surface.
func TestSessionValidation(t *testing.T) {
	ts := testServer(t, Config{Workers: 2})
	bad := []*SessionSpec{
		{N: 12, Seed: 1},                         // not a power of two
		{N: 8, Seed: 1, Packed: true, Faults: 1}, // packed × faults
		{N: 8, Seed: 1, Packed: true, Events: 1}, // packed × events
		{N: 8, Seed: 1, Grid: true},              // 8 is not a square
		{N: 4096, Seed: 1},                       // beyond MaxN
	}
	for i, spec := range bad {
		if status, body := postJSON(t, ts, "/sessions", spec); status != http.StatusBadRequest {
			t.Fatalf("bad spec %d admitted: status %d: %s", i, status, body)
		}
	}

	rep := openSession(t, ts, &SessionSpec{N: 8, Seed: 1})
	badReq := []updateRequest{
		{},          // neither updates nor count
		{Count: -1}, // negative count
		{Count: 2, Updates: []updateSpec{{U: 0, V: 1, Add: true}}}, // both
		{Updates: []updateSpec{{U: 0, V: 99, Add: true}}},          // out of range
		{Updates: []updateSpec{{U: 3, V: 3, Add: true}}},           // self loop
	}
	for i, req := range badReq {
		if status, body := postJSON(t, ts, "/sessions/"+rep.SessionID+"/updates", req); status != http.StatusBadRequest {
			t.Fatalf("bad update %d admitted: status %d: %s", i, status, body)
		}
	}
	if status, _ := postJSON(t, ts, "/sessions/nope/updates", updateRequest{Count: 1}); status != http.StatusNotFound {
		t.Fatalf("unknown session answered %d", status)
	}
}

// TestSessionDrain pins the shutdown ladder's session tail: Drain
// releases resident sessions and further creations shed as draining.
func TestSessionDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep := openSession(t, ts, &SessionSpec{N: 8, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	snap := s.metrics.snapshot(s.cfg.QueueCap, s.cfg.Workers, s.cache, s.breaker, s.SessionCount())
	if snap.SessionsClosed != 1 || snap.SessionsActive != 0 {
		t.Fatalf("drain counters: closed %d active %d", snap.SessionsClosed, snap.SessionsActive)
	}
	if status, body := postJSON(t, ts, "/sessions", &SessionSpec{N: 8, Seed: 2}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain create: status %d: %s", status, body)
	}
	if status, _ := postJSON(t, ts, "/sessions/"+rep.SessionID+"/updates", updateRequest{Count: 1}); status != http.StatusNotFound {
		t.Fatalf("post-drain update on released session: status %d", status)
	}
}

// TestSessionMetricsFlow checks the counters a healthy session story
// leaves behind.
func TestSessionMetricsFlow(t *testing.T) {
	ts, s := testServerWithHandle(t, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: 8, Seed: 1})
	postBatch(t, ts, rep.SessionID, updateRequest{Count: 2})
	postBatch(t, ts, rep.SessionID, updateRequest{Count: 1})
	snap := s.Metrics()
	if snap.SessionsCreated != 1 || snap.SessionsActive != 1 {
		t.Fatalf("session gauges: %+v", snap)
	}
	if snap.SessionBatches != 2 || snap.SessionUpdates != 3 {
		t.Fatalf("batch counters: batches %d updates %d", snap.SessionBatches, snap.SessionUpdates)
	}
}

// testServerWithHandle is testServer but also returns the Server for
// direct metrics access.
func testServerWithHandle(t *testing.T, cfg Config) (*httptest.Server, *Server) {
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
	return ts, s
}
