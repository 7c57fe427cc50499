package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestEngineChoice pins the one engine decision (run.Spec.Packed) over
// alg × faults × events × flag × network: every healthy cc job and
// session runs packed whatever the flag says, and sort, faulty and
// supervised runs stay on the scalar machine. Each row checks the
// class mode, whether the job raised packed_jobs, how many machine
// checkouts the job made, and whether the equivalent session checked
// out a machine. A supervised job's baseline takes the engine of the
// same job unsupervised, so a supervised cc job checks out one
// machine, for the supervised run, and a supervised sort two.
func TestEngineChoice(t *testing.T) {
	one := 1
	rows := []struct {
		job       Job
		mode      string
		packed    bool
		checkouts int
	}{
		{Job{Alg: "sort"}, "plain", false, 1},
		{Job{Alg: "sort", Network: "scaled"}, "plain", false, 1},
		{Job{Alg: "sort", Faults: 1}, "faulty", false, 1},
		{Job{Alg: "sort", Events: &one}, "supervised", false, 2},
		{Job{Alg: "cc"}, "packed", true, 0},
		{Job{Alg: "cc", Packed: true}, "packed", true, 0},
		{Job{Alg: "cc", Network: "scaled"}, "packed", true, 0},
		{Job{Alg: "cc", Network: "scaled", Packed: true}, "packed", true, 0},
		{Job{Alg: "cc", Model: "const"}, "packed", true, 0},
		{Job{Alg: "cc", Faults: 1}, "faulty", false, 1},
		{Job{Alg: "cc", Network: "scaled", Faults: 1}, "faulty", false, 1},
		{Job{Alg: "cc", Events: &one}, "supervised", false, 1},
		{Job{Alg: "cc", Events: new(int)}, "supervised", false, 1},
		{Job{Alg: "cc", Network: "scaled", Events: &one}, "supervised", false, 1},
	}
	s := New(Config{Workers: 2, MaxSessions: 16})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	for i, row := range rows {
		j := row.job
		j.N, j.Seed = 16, uint64(100+i)
		name := fmt.Sprintf("%d/%s", i, j.Class())
		t.Run(name, func(t *testing.T) {
			if mode := j.Class()[strings.LastIndex(j.Class(), "/")+1:]; mode != row.mode {
				t.Fatalf("class mode %q, want %q", mode, row.mode)
			}
			before := s.Metrics()
			postJob(t, ts, &j)
			after := s.Metrics()
			if rose := after.PackedJobs > before.PackedJobs; rose != row.packed {
				t.Fatalf("packed_jobs rose = %v, want %v", rose, row.packed)
			}
			checkouts := after.MCache.Hits + after.MCache.Misses - before.MCache.Hits - before.MCache.Misses
			if checkouts != row.checkouts {
				t.Fatalf("job made %d machine checkouts, want %d", checkouts, row.checkouts)
			}
			if j.Alg != "cc" {
				return
			}
			spec := &SessionSpec{N: j.N, Seed: j.Seed, Network: j.Network, Model: j.Model,
				Packed: j.Packed, Faults: j.Faults}
			if j.Events != nil {
				spec.Events = *j.Events
			}
			if spec.Faults == 0 && spec.Events == 0 && !row.packed {
				return // events=0 supervises a job but leaves a session healthy
			}
			rep := openSession(t, ts, spec)
			sess := s.lookupSession(rep.SessionID)
			sess.lock.Lock()
			machine := sess.m != nil
			sess.lock.Unlock()
			if machine == row.packed {
				t.Fatalf("session checked out a machine = %v, want %v", machine, !row.packed)
			}
			resp, err := ts.Client().Get(ts.URL + "/sessions/" + rep.SessionID)
			if err != nil {
				t.Fatal(err)
			}
			var info sessionInfo
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if info.Packed != row.packed {
				t.Fatalf("GET /sessions reports packed = %v, want %v", info.Packed, row.packed)
			}
		})
	}

	// The size bound follows the engine.
	for _, c := range []struct {
		v  interface{ Validate() error }
		ok bool
	}{
		{&Job{Alg: "cc", N: PackedMaxN}, true},
		{&Job{Alg: "cc", N: PackedMaxN, Faults: 1}, false},
		{&Job{Alg: "cc", N: PackedMaxN, Events: new(int)}, false},
		{&Job{Alg: "sort", N: PackedMaxN}, false},
		{&Job{Alg: "cc", N: 2 * PackedMaxN}, false},
		{&SessionSpec{N: PackedMaxN}, true},
		{&SessionSpec{N: PackedMaxN, Events: 1}, false},
	} {
		if err := c.v.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: Validate() = %v, want ok = %v", c.v, err, c.ok)
		}
	}
	if status, body := postJSON(t, ts, "/jobs", &Job{Alg: "cc", N: 512, Seed: 1}); status != http.StatusOK {
		t.Fatalf("unflagged healthy cc n=512: status %d: %s", status, body)
	}
}

// TestCompactSnapshotIffPackedEngine pins the invariant server
// recovery leans on: over network × model × grid × faults/events, a
// session snapshots as compact State exactly when its spec picks the
// packed engine, and as input history otherwise. restoreSession
// resumes every compact snapshot on the packed engine.
func TestCompactSnapshotIffPackedEngine(t *testing.T) {
	ts, s := testServerWithHandle(t, Config{Workers: 2, MaxSessions: 64, Burst: 128})
	modes := []struct{ faults, events int }{{0, 0}, {1, 0}, {0, 1}}
	for _, network := range []string{"", "scaled"} {
		for _, model := range []string{"", "const", "linear"} {
			for _, grid := range []bool{false, true} {
				for _, mode := range modes {
					spec := &SessionSpec{N: 16, Seed: 7, Network: network, Model: model,
						Grid: grid, Faults: mode.faults, Events: mode.events}
					name := fmt.Sprintf("%s/%s/grid=%v/faults=%d/events=%d",
						network, model, grid, mode.faults, mode.events)
					t.Run(name, func(t *testing.T) {
						rep := openSession(t, ts, spec)
						postBatch(t, ts, rep.SessionID, updateRequest{Count: 2})
						sess := s.lookupSession(rep.SessionID)
						ss := s.captureSession(sess)
						if ss == nil {
							t.Fatal("live session captured no snapshot")
						}
						want := spec.job().spec().Packed()
						if compact := ss.State != nil; compact != want {
							t.Fatalf("compact state = %v, packed engine = %v", compact, want)
						}
						if history := ss.History != nil; history == want {
							t.Fatalf("input history = %v, packed engine = %v", history, want)
						}
						sess.lock.Lock()
						onPacked := sess.pinc != nil
						sess.lock.Unlock()
						if onPacked != want {
							t.Fatalf("session runs packed = %v, Packed() = %v", onPacked, want)
						}
					})
				}
			}
		}
	}
}
