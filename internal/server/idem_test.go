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

	"repro/internal/report"
)

// serveKeyed sends one request straight through s.ServeHTTP, with an
// Idempotency-Key when key is non-empty, and returns the recording.
func serveKeyed(s *Server, method, path, key string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestKeyedRetryAfterGracefulRestart pins the snapshot path of the
// idempotency store: a drained server snapshots its stored answers,
// so after a reopen with nothing left to replay a retried key still
// answers byte-for-byte and applies no second batch.
func TestKeyedRetryAfterGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	ts, s := journalServer(t, dir, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: 16, Seed: 19})
	path := "/sessions/" + rep.SessionID + "/updates"
	status, original, _ := postKeyed(t, ts, path, "drained", updateRequest{Count: 2})
	if status != http.StatusOK {
		t.Fatalf("keyed batch: status %d: %s", status, original)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	ts2, s2 := journalServer(t, dir, Config{Workers: 2})
	defer crash(ts2, s2)
	if d := s2.Metrics().Durability; d.TailRecords != 0 {
		t.Fatalf("graceful restart left %d tail records to replay", d.TailRecords)
	}
	batchesBefore := s2.Metrics().SessionBatches
	status, replayed, deduped := postKeyed(t, ts2, path, "drained", updateRequest{Count: 2})
	if status != http.StatusOK || !deduped {
		t.Fatalf("retry after restart: status %d deduped %v: %s", status, deduped, replayed)
	}
	if !bytes.Equal(original, replayed) {
		t.Fatalf("retry bytes differ after restart:\n%s\nvs\n%s", original, replayed)
	}
	if got := s2.Metrics().SessionBatches; got != batchesBefore {
		t.Fatalf("retried key re-executed after restart (batches %d -> %d)", batchesBefore, got)
	}
}

// TestConcurrentRetriesOneKey holds the session's lock while eight
// requests with one key arrive, so one leads (and blocks on the
// session) while seven wait on its flight. Exactly one batch applies
// and every request answers with the leader's bytes.
func TestConcurrentRetriesOneKey(t *testing.T) {
	const n = 8
	ts, s := testServerWithHandle(t, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: 16, Seed: 29})
	sess := s.lookupSession(rep.SessionID)
	path := "/sessions/" + rep.SessionID + "/updates"
	batchesBefore := s.Metrics().SessionBatches
	coalescedBefore := s.idem.Stats().Coalesced

	sess.lock.Lock()
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = serveKeyed(s, http.MethodPost, path, "one-key", []byte(`{"count":2}`))
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.idem.Stats().Coalesced-coalescedBefore < n-1 {
		if time.Now().After(deadline) {
			sess.lock.Unlock()
			t.Fatalf("%d of %d requests waiting on the key's flight", s.idem.Stats().Coalesced-coalescedBefore, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	sess.lock.Unlock()
	wg.Wait()

	replays := 0
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d answered differently:\n%s\nvs\n%s", i, rec.Body.Bytes(), recs[0].Body.Bytes())
		}
		if rec.Header().Get("Idempotent-Replay") == "true" {
			replays++
		}
	}
	if replays != n-1 {
		t.Fatalf("%d replays, want %d", replays, n-1)
	}
	if got := s.Metrics().SessionBatches - batchesBefore; got != 1 {
		t.Fatalf("%d batches applied for one key, want 1", got)
	}
}

// TestOverlongKeyRefused pins the key-length check: a key too long to
// store could never answer a retry, so it is refused before it is
// claimed and before the batch runs.
func TestOverlongKeyRefused(t *testing.T) {
	ts, s := testServerWithHandle(t, Config{Workers: 2})
	rep := openSession(t, ts, &SessionSpec{N: 16, Seed: 3})
	batchesBefore := s.Metrics().SessionBatches
	rec := serveKeyed(s, http.MethodPost, "/sessions/"+rep.SessionID+"/updates",
		strings.Repeat("k", 256), []byte(`{"count":1}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid"`) {
		t.Fatalf("256-byte key: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := s.Metrics().SessionBatches; got != batchesBefore {
		t.Fatal("a refused key's batch ran")
	}
	rec = serveKeyed(s, http.MethodPost, "/sessions/"+rep.SessionID+"/updates",
		strings.Repeat("k", 255), []byte(`{"count":1}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("255-byte key: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// TestKeyedAnswerSurvivesResultCacheFlood pins the two budgets apart:
// unique specs that churn a small result cache never evict a stored
// idempotency answer.
func TestKeyedAnswerSurvivesResultCacheFlood(t *testing.T) {
	ts, s := testServerWithHandle(t, Config{Workers: 2, Rate: -1, ResultCacheBytes: 256})
	hdr := map[string]string{"Idempotency-Key": "flood"}
	spec := &Job{Alg: "sort", N: 8, Seed: 1}
	resp, first := postRaw(t, ts.URL, spec, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed job: status %d: %s", resp.StatusCode, first)
	}
	for seed := uint64(2); seed < 66; seed++ {
		if resp, body := postRaw(t, ts.URL, &Job{Alg: "sort", N: 8, Seed: seed}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("flood job %d: status %d: %s", seed, resp.StatusCode, body)
		}
	}
	if s.resc.Stats().Evictions == 0 {
		t.Fatal("the flood evicted nothing from the result cache")
	}
	resp, retry := postRaw(t, ts.URL, spec, hdr)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("retry after flood: status %d replay %q", resp.StatusCode, resp.Header.Get("Idempotent-Replay"))
	}
	if !bytes.Equal(first, retry) {
		t.Fatalf("retry after flood differs:\n%s\nvs\n%s", retry, first)
	}
}

// FuzzJobDecode feeds arbitrary POST /jobs (single and array) and
// POST /sessions bodies, with an arbitrary Idempotency-Key, through an
// in-process server. No input may panic it; every answer is one of the
// service's statuses; every 200 single-job body is a report.
func FuzzJobDecode(f *testing.F) {
	f.Add(false, []byte(`{"alg":"sort","n":8,"seed":1}`), "")
	f.Add(false, []byte(`{"alg":"cc","n":16,"seed":2,"idem_key":"b"}`), "a")
	f.Add(false, []byte(`[{"alg":"sort","n":8},{"alg":"cc","n":4,"faults":1},null]`), "")
	f.Add(false, []byte(`{"alg":"sort","n":3}`), "k")
	f.Add(true, []byte(`{"n":16,"seed":5}`), "s")
	f.Add(true, []byte(`{"n":16,"grid":true}`), "")
	f.Add(true, []byte(`{"n":8,"faults":-1}`), "")

	s := New(Config{Workers: 2, MaxSessions: 4, Rate: -1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	f.Fuzz(func(t *testing.T, session bool, body []byte, key string) {
		path := "/jobs"
		if session {
			path = "/sessions"
		}
		rec := serveKeyed(s, http.MethodPost, path, key, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusInternalServerError:
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		if session {
			// Free the slot so later inputs still reach creation.
			var rep report.Report
			if json.Unmarshal(rec.Body.Bytes(), &rep) == nil && rep.SessionID != "" {
				serveKeyed(s, http.MethodDelete, "/sessions/"+rep.SessionID, "", nil)
			}
			return
		}
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
			return
		}
		var rep report.Report
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatalf("200 job body is not a report: %v\n%s", err, rec.Body.Bytes())
		}
	})
}
