package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/mcache"
	"repro/internal/report"
	"repro/internal/server"
)

// The replay mirrors the executor; these tests keep the mirror from
// drifting, so the trace keeps timing what the server runs and the
// oracle keeps checking what the server should answer.

func TestMirrorMatchesExecutor(t *testing.T) {
	ex := server.NewExecutor(mcache.NewWithCapacity(2))
	p := newJobsPipeline(newTracer(true), 2)
	for _, c := range engineClasses {
		for seed := uint64(1); seed <= 3; seed++ {
			j := c.job
			j.Seed, j.ID = specSeed(seed, streamOps, 7), "x"
			want, err := ex.Run(context.Background(), &j)
			if err != nil {
				t.Fatalf("%s seed %d: executor: %v", c.label, seed, err)
			}
			body, _ := json.Marshal(j)
			got, err := p.single(int64(seed), body, "c0")
			if err != nil {
				t.Fatalf("%s seed %d: replay: %v", c.label, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: replay differs from executor:\n%s", c.label, seed, got.Diff(want))
			}
		}
	}
	if p.engineNS["cc1024packed"] == 0 || p.bitTimes["sort64"] == 0 {
		t.Errorf("engine time not accounted per class: %v %v", p.engineNS, p.bitTimes)
	}
}

func TestMirrorArrayMatchesExecutor(t *testing.T) {
	ex := server.NewExecutor(mcache.NewWithCapacity(2))
	w := newBulk(&runner{seed: 5}).(*jobsWorkload)
	o := w.next(0)
	p := newJobsPipeline(newTracer(false), 2)
	reps, err := p.array(o.idx, o.body, "c0")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []server.Job
	if err := json.Unmarshal(o.body, &jobs); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		want, err := ex.Run(context.Background(), &jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reps[i], want) {
			t.Errorf("lane %d: batch replay differs from a dedicated run:\n%s", i, reps[i].Diff(want))
		}
	}
}

// TestMirrorSessionsMatchServer streams batches into both sessions of
// sessions_durable on an in-process server and checks every reply
// against the replay.
func TestMirrorSessionsMatchServer(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, SweepInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	w := newSessions(&runner{seed: 9, clients: 2}).(*sessionsWorkload)
	p := newSessionsPipeline(newTracer(true), 4)
	post := func(path string, body []byte) *report.Report {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep report.Report
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&rep) != nil {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		return &rep
	}
	for i, spec := range w.specs {
		body, _ := json.Marshal(spec)
		got := post("/sessions", body)
		w.ids = append(w.ids, got.SessionID)
		want, err := p.create(got.SessionID, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Same(want) {
			t.Fatalf("session %d create: %s", i, got.Diff(want))
		}
	}
	for k := 0; k < 12; k++ {
		for si, id := range w.ids {
			got := post("/sessions/"+id+"/updates", countBody)
			want, err := p.update(int64(k), si, "", countBody)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Same(want) {
				t.Fatalf("session %d batch %d: %s", si, k+1, got.Diff(want))
			}
		}
	}
}

func TestSameAnswerIgnoresTransportFields(t *testing.T) {
	rep := &report.Report{Alg: "sort", N: 16, Seed: 3, Time: 120, Area: 64, Recovered: true, JobID: "j1"}
	hit := *rep
	hit.JobID, hit.Cached = "j2", true
	if !sameAnswer(renderJSON(rep), renderJSON(&hit)) {
		t.Error("a cached reply to the same spec should match the first reply")
	}
	other := hit
	other.Time++
	if sameAnswer(renderJSON(rep), renderJSON(&other)) {
		t.Error("replies with different simulated times should differ")
	}
}

func TestSeedsAreDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for stream := uint64(streamOps); stream <= streamSession; stream++ {
		for i := int64(-8); i < 4096; i++ {
			s := specSeed(1, stream, i)
			if seen[s] {
				t.Fatalf("seed collision at stream %d index %d", stream, i)
			}
			seen[s] = true
		}
	}
}
