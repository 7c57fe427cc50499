package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/report"
)

// postRaw submits one job with optional headers and returns the full
// response: status, headers, body.
func postRaw(t *testing.T, url string, j *Job, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPost, url+"/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// cacheDiffSpecs covers every execution mode the cache may serve:
// scalar sort, packed cc (unflagged and flagged: healthy cc runs
// packed either way), faulty, and supervised.
func cacheDiffSpecs() []*Job {
	three := 3
	return []*Job{
		{Alg: "sort", N: 16, Seed: 7},
		{Alg: "cc", N: 16, Seed: 11},
		{Alg: "cc", N: 64, Seed: 21, Packed: true},
		{Alg: "sort", N: 16, Seed: 5, Faults: 2},
		{Alg: "sort", N: 8, Seed: 9, Events: &three},
	}
}

// TestCacheHitBytesMatchFreshExecution is the tentpole differential:
// for every execution mode, a warm request answered from the result
// cache must carry bytes identical to a fresh execution on a cache-
// disabled server — identical in every simulated field (report.Same)
// and byte-identical once the declared transport marks (cached) are
// cleared.
func TestCacheHitBytesMatchFreshExecution(t *testing.T) {
	warmTS := testServer(t, Config{Workers: 2})                       // cache on (default budget)
	coldTS := testServer(t, Config{Workers: 2, ResultCacheBytes: -1}) // cache off

	for _, j := range cacheDiffSpecs() {
		j := j
		t.Run(caseName(j), func(t *testing.T) {
			// Fresh execution, no cache anywhere in the path.
			resp, fresh := postRaw(t, coldTS.URL, j, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cold status %d: %s", resp.StatusCode, fresh)
			}
			if h := resp.Header.Get("X-Result-Cache"); h != "" {
				t.Fatalf("cache-disabled server marked X-Result-Cache: %q", h)
			}

			// First warm-server request executes and populates the cache.
			resp1, first := postRaw(t, warmTS.URL, j, nil)
			if resp1.StatusCode != http.StatusOK {
				t.Fatalf("first status %d: %s", resp1.StatusCode, first)
			}
			if h := resp1.Header.Get("X-Result-Cache"); h != "" {
				t.Fatalf("first execution marked X-Result-Cache: %q", h)
			}
			if !bytes.Equal(first, fresh) {
				t.Fatalf("first warm-server execution differs from cache-off server:\n%s\nvs\n%s", first, fresh)
			}

			// Second request must be a declared cache hit.
			resp2, hit := postRaw(t, warmTS.URL, j, nil)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("hit status %d: %s", resp2.StatusCode, hit)
			}
			if h := resp2.Header.Get("X-Result-Cache"); h != "hit" {
				t.Fatalf("second request X-Result-Cache = %q, want \"hit\"", h)
			}
			var hitRep, freshRep report.Report
			if err := json.Unmarshal(hit, &hitRep); err != nil {
				t.Fatalf("decode hit: %v", err)
			}
			if err := json.Unmarshal(fresh, &freshRep); err != nil {
				t.Fatalf("decode fresh: %v", err)
			}
			if !hitRep.Cached || hitRep.Coalesced {
				t.Fatalf("hit report marks cached=%v coalesced=%v, want cached only", hitRep.Cached, hitRep.Coalesced)
			}
			if !hitRep.Same(&freshRep) {
				t.Fatalf("cached report differs from fresh execution:\n%s", hitRep.Diff(&freshRep))
			}
			// Byte identity modulo the declared mark: clearing Cached
			// must reproduce the fresh bytes exactly.
			hitRep.Cached = false
			if got := renderJSON(&hitRep); !bytes.Equal(got, fresh) {
				t.Fatalf("cached bytes (mark cleared) differ from fresh bytes:\n%s\nvs\n%s", got, fresh)
			}
		})
	}

	// The warm server's ledger: one miss and one hit per spec.
	snap := metricsOf(t, warmTS.URL)
	n := int64(len(cacheDiffSpecs()))
	if snap.ResultCache == nil {
		t.Fatal("metrics missing result_cache block")
	}
	if snap.ResultCache.Misses != n {
		t.Fatalf("misses %d, want %d (one per spec)", snap.ResultCache.Misses, n)
	}
	if snap.ResultCache.Hits != n {
		t.Fatalf("hits %d, want %d", snap.ResultCache.Hits, n)
	}
}

func metricsOf(t *testing.T, url string) Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap
}

// TestCacheSingleflightCoalesces hammers one spec with concurrent
// submissions: exactly one execution may happen (one cache miss, one
// completed job), every other request must be answered from the
// leader's bytes (hit or coalesced), and every response must carry
// identical simulated content. Run under -race this also proves the
// flight handoff is clean.
func TestCacheSingleflightCoalesces(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, Rate: -1})
	spec := &Job{Alg: "cc", N: 64, Seed: 3, Packed: true}

	const clients = 24
	type res struct {
		mark string
		rep  report.Report
	}
	results := make([]res, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postRaw(t, ts.URL, spec, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var rep report.Report
			if err := json.Unmarshal(body, &rep); err != nil {
				t.Errorf("client %d: decode: %v", i, err)
				return
			}
			results[i] = res{mark: resp.Header.Get("X-Result-Cache"), rep: rep}
		}(i)
	}
	wg.Wait()

	executed := 0
	for i := range results {
		if results[i].mark == "" {
			executed++
		}
		if !results[i].rep.Same(&results[0].rep) {
			t.Fatalf("client %d report diverges:\n%s", i, results[i].rep.Diff(&results[0].rep))
		}
	}
	if executed != 1 {
		t.Fatalf("%d responses claim fresh execution, want exactly 1", executed)
	}

	snap := metricsOf(t, ts.URL)
	if snap.Completed != 1 {
		t.Fatalf("server completed %d jobs, want 1 (coalescing failed)", snap.Completed)
	}
	rc := snap.ResultCache
	if rc == nil || rc.Misses != 1 {
		t.Fatalf("result_cache misses = %+v, want exactly 1", rc)
	}
	if rc.Hits+rc.Coalesced != clients-1 {
		t.Fatalf("hits %d + coalesced %d, want %d followers", rc.Hits, rc.Coalesced, clients-1)
	}
}

// TestCacheDisabledExecutesEveryTime pins the opt-out: with
// ResultCacheBytes < 0 every identical submission executes, no marks
// appear, and /metrics omits the result_cache block.
func TestCacheDisabledExecutesEveryTime(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, ResultCacheBytes: -1})
	spec := &Job{Alg: "sort", N: 8, Seed: 1}
	for i := 0; i < 3; i++ {
		resp, body := postRaw(t, ts.URL, spec, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if h := resp.Header.Get("X-Result-Cache"); h != "" {
			t.Fatalf("request %d marked X-Result-Cache: %q with cache disabled", i, h)
		}
	}
	snap := metricsOf(t, ts.URL)
	if snap.Completed != 3 {
		t.Fatalf("completed %d, want 3 (every submission executes)", snap.Completed)
	}
	if snap.ResultCache != nil {
		t.Fatalf("metrics carry a result_cache block with the cache disabled: %+v", snap.ResultCache)
	}
}

// TestCacheHitWithIdempotencyKey pins the orthogonality contract: a
// keyed request served from the result cache still publishes its
// (patched) bytes under its idempotency key, so a retry of that key
// replays those exact bytes from the dedup table.
func TestCacheHitWithIdempotencyKey(t *testing.T) {
	ts := testServer(t, Config{Workers: 2})
	spec := &Job{Alg: "cc", N: 16, Seed: 4}

	// Unkeyed execution populates the cache.
	if resp, body := postRaw(t, ts.URL, spec, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run status %d: %s", resp.StatusCode, body)
	}

	// Keyed request: cache hit, marked, and published under the key.
	hdr := map[string]string{"Idempotency-Key": "orthogonal-1"}
	resp1, first := postRaw(t, ts.URL, spec, hdr)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("keyed status %d: %s", resp1.StatusCode, first)
	}
	if h := resp1.Header.Get("X-Result-Cache"); h != "hit" {
		t.Fatalf("keyed request X-Result-Cache = %q, want \"hit\"", h)
	}

	// Retry of the same key: the dedup table answers with the stored
	// bytes, verbatim, regardless of the result cache.
	resp2, retry := postRaw(t, ts.URL, spec, hdr)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d: %s", resp2.StatusCode, retry)
	}
	if resp2.Header.Get("Idempotent-Replay") != "true" {
		t.Fatal("retried key was not answered from the dedup table")
	}
	if !bytes.Equal(retry, first) {
		t.Fatalf("dedup replay differs from the keyed response:\n%s\nvs\n%s", retry, first)
	}
}

// TestStreamCacheMarks submits an array containing duplicate specs:
// the stream must come back with every line ok, the duplicates marked
// cached or coalesced, and all simulated content identical.
func TestStreamCacheMarks(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, Rate: -1})
	specs := []*Job{
		{ID: "a", Alg: "cc", N: 32, Seed: 9, Packed: true},
		{ID: "b", Alg: "cc", N: 32, Seed: 9, Packed: true},
		{ID: "c", Alg: "cc", N: 32, Seed: 9, Packed: true},
	}
	body, _ := json.Marshal(specs)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var items []streamItem
	for dec.More() {
		var it streamItem
		if err := dec.Decode(&it); err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		items = append(items, it)
	}
	if len(items) != len(specs) {
		t.Fatalf("%d stream lines, want %d", len(items), len(specs))
	}
	executed, served := 0, 0
	var ref *report.Report
	for _, it := range items {
		if it.Status != "ok" || it.Report == nil {
			t.Fatalf("stream line %+v not ok", it)
		}
		if it.Report.JobID == "" {
			t.Fatalf("stream line lost its job id: %+v", it.Report)
		}
		if it.Report.Cached || it.Report.Coalesced {
			served++
		} else {
			executed++
		}
		if ref == nil {
			ref = it.Report
		} else if !it.Report.Same(ref) {
			t.Fatalf("stream reports diverge:\n%s", it.Report.Diff(ref))
		}
	}
	if executed != 1 || served != 2 {
		t.Fatalf("executed %d served %d, want 1 and 2", executed, served)
	}
}
