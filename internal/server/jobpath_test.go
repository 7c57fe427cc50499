package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRefusedKeyIsReleased pins the key rule's deferred release: a
// keyed request refused before it executed leaves its key unclaimed,
// so once the cause is gone a retry with the same key executes (200)
// instead of replaying the refusal.
func TestRefusedKeyIsReleased(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	job := &Job{Alg: "sort", N: 16, Seed: 1}
	type retry func() (path string, body any)
	cases := []struct {
		name string
		cfg  Config
		want int
		// refuse prepares the cause and returns the keyed request that
		// must be refused with want, plus fix, which removes the cause
		// and returns the retry.
		refuse func(t *testing.T, ts *httptest.Server, s *Server) (path string, body any, fix retry)
	}{
		{
			name: "invalid job",
			want: http.StatusBadRequest,
			refuse: func(*testing.T, *httptest.Server, *Server) (string, any, retry) {
				return "/jobs", &Job{Alg: "sort", N: 3}, func() (string, any) { return "/jobs", job }
			},
		},
		{
			name: "rate limited job",
			cfg:  Config{Rate: 0.001, Burst: 1, Now: clock},
			want: http.StatusTooManyRequests,
			refuse: func(t *testing.T, ts *httptest.Server, _ *Server) (string, any, retry) {
				if status, body := postJSON(t, ts, "/jobs", job); status != http.StatusOK {
					t.Fatalf("job spending the only token: status %d: %s", status, body)
				}
				return "/jobs", job, func() (string, any) {
					advance(time.Hour)
					return "/jobs", job
				}
			},
		},
		{
			name: "sessions full",
			cfg:  Config{MaxSessions: 1},
			want: http.StatusTooManyRequests,
			refuse: func(t *testing.T, ts *httptest.Server, _ *Server) (string, any, retry) {
				first := openSession(t, ts, &SessionSpec{N: 8, Seed: 1})
				spec := &SessionSpec{N: 8, Seed: 2}
				return "/sessions", spec, func() (string, any) {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+first.SessionID, nil)
					resp, err := ts.Client().Do(req)
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("delete: status %d", resp.StatusCode)
					}
					return "/sessions", spec
				}
			},
		},
		{
			name: "update to a closed session",
			want: http.StatusGone,
			refuse: func(t *testing.T, ts *httptest.Server, s *Server) (string, any, retry) {
				closed := openSession(t, ts, &SessionSpec{N: 8, Seed: 1}).SessionID
				open := openSession(t, ts, &SessionSpec{N: 8, Seed: 2}).SessionID
				// Closed but still registered: the state an update meets
				// when a delete lands between its lookup and its lock.
				s.releaseSession(s.lookupSession(closed))
				req := updateRequest{Count: 1}
				return "/sessions/" + closed + "/updates", req, func() (string, any) {
					return "/sessions/" + open + "/updates", req
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 2
			ts, s := testServerWithHandle(t, tc.cfg)
			// A key left claimed blocks its retry: fail, don't hang.
			ts.Client().Timeout = 10 * time.Second
			const key = "refused-then-retried"
			path, v, fix := tc.refuse(t, ts, s)
			if status, body, replay := postKeyed(t, ts, path, key, v); status != tc.want || replay {
				t.Fatalf("refused request: status %d replay %v, want %d: %s", status, replay, tc.want, body)
			}
			path, v = fix()
			if status, body, replay := postKeyed(t, ts, path, key, v); status != http.StatusOK || replay {
				t.Fatalf("retry after the cause is gone: status %d replay %v, want 200 executed: %s",
					status, replay, body)
			}
		})
	}
}

// TestCorruptCachedBodyFails pins both renderers of the one job path
// on unreadable stored bytes: the single job answers 500 failed, and
// the array line reads failed with the error instead of an ok line
// without a report.
func TestCorruptCachedBodyFails(t *testing.T) {
	ts, s := testServerWithHandle(t, Config{Workers: 2, Rate: -1})
	spec := &Job{ID: "corrupt", Alg: "sort", N: 8, Seed: 1}
	fp := spec.Fingerprint()
	_, fl, leader := s.resc.Lookup(fp)
	if !leader {
		t.Fatal("fresh cache did not make the lookup a leader")
	}
	s.resc.Resolve(fp, fl, nil, []byte("{not json"))

	resp, body := postRaw(t, ts.URL, spec, nil)
	var shed shedError
	if err := json.Unmarshal(body, &shed); err != nil || resp.StatusCode != http.StatusInternalServerError ||
		shed.Reason != "failed" || !strings.Contains(shed.Error, "result cache") {
		t.Fatalf("single job on corrupt bytes: status %d: %s", resp.StatusCode, body)
	}

	arr, _ := json.Marshal([]*Job{spec})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(arr))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var it streamItem
	if err := json.NewDecoder(resp.Body).Decode(&it); err != nil {
		t.Fatalf("decode stream line: %v", err)
	}
	if it.Status != "failed" || it.Report != nil || !strings.Contains(it.Error, "result cache") || it.JobID != spec.ID {
		t.Fatalf("array line on corrupt bytes: %+v", it)
	}
}

// TestDrainingInvalidResponses pins what each path answers for every
// combination of a draining server and an invalid job. Each job is
// validated once: a single job is refused as invalid before the
// draining check, while an array element meets the draining check
// first, so a draining server answers every element "draining".
func TestDrainingInvalidResponses(t *testing.T) {
	valid := &Job{ID: "v", Alg: "sort", N: 16, Seed: 1}
	invalid := &Job{ID: "x", Alg: "sort", N: 3}
	for _, draining := range []bool{false, true} {
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s)
		if draining {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := s.Drain(ctx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
		}
		type want struct {
			status int
			reason string
		}
		single := map[*Job]want{
			valid:   {http.StatusOK, ""},
			invalid: {http.StatusBadRequest, "invalid"},
		}
		line := map[string]string{"v": "ok", "x": "invalid"}
		wantInvalid, wantDrain := int64(2), int64(0)
		if draining {
			single[valid] = want{http.StatusServiceUnavailable, "draining"}
			line = map[string]string{"v": "draining", "x": "draining"}
			wantInvalid, wantDrain = 1, 3
		}
		for j, w := range single {
			status, shed, _ := rawPost(t, ts, j)
			if status != w.status || (shed != nil && shed.Reason != w.reason) {
				t.Errorf("draining=%v single %s: %d %+v, want %d %s", draining, j.ID, status, shed, w.status, w.reason)
			}
		}
		status, body := postJSON(t, ts, "/jobs", []*Job{valid, invalid})
		if status != http.StatusOK {
			t.Fatalf("draining=%v array: status %d: %s", draining, status, body)
		}
		got := map[string]string{}
		for _, l := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var it streamItem
			if err := json.Unmarshal(l, &it); err != nil {
				t.Fatalf("decode line %q: %v", l, err)
			}
			got[it.JobID] = it.Status
		}
		for id, st := range line {
			if got[id] != st {
				t.Errorf("draining=%v array line %s: status %q, want %q", draining, id, got[id], st)
			}
		}
		snap := s.Metrics()
		if snap.Invalid != wantInvalid || snap.RejectedDrain != wantDrain {
			t.Errorf("draining=%v: invalid %d rejected_draining %d, want %d %d",
				draining, snap.Invalid, snap.RejectedDrain, wantInvalid, wantDrain)
		}
		ts.Close()
		s.Close()
	}
}
