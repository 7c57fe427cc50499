package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/server"
)

// SessionOptions configures one streamed-session replay: check out a
// session, stream Batches server-generated update batches through it,
// close it, and report what each round trip cost. Unlike Run's
// open-loop schedule this is closed-loop — batch k+1 is not sent until
// batch k's report is back — because a session serializes its batches
// anyway and the interesting number is the per-batch service latency.
type SessionOptions struct {
	// URL is the server base URL (e.g. http://localhost:8080).
	URL string
	// Spec is the session checkout body sent to POST /sessions.
	Spec server.SessionSpec
	// Batches is the number of update batches to stream (default 32).
	Batches int
	// BatchSize is the generated updates per batch — pixel flips for
	// grid sessions, edge toggles otherwise (default 4).
	BatchSize int
	// Client is the X-Client-ID header (default "session").
	Client string
	// SessionID resumes an existing session (a recovered one after a
	// server restart with -journal) instead of creating a new one; Spec
	// is then ignored.
	SessionID string
	// StartBatch numbers the streamed batches from this index (resume
	// runs continue a keyed sequence; default 1).
	StartBatch int
	// KeyPrefix, when set, attaches an Idempotency-Key to the create
	// and to every batch ("<prefix>-create", "<prefix>-b<index>"): a
	// resubmitted batch answers with the original report instead of
	// re-executing.
	KeyPrefix string
	// Retries re-attempts shed (429/503) and transport failures per
	// request, honoring Retry-After with jittered backoff (default 0).
	Retries int
	// KeepOpen leaves the session resident (no DELETE) so a later run
	// — or a recovered server — can resume it.
	KeepOpen bool
	// Think pauses between batches, pacing the stream so an external
	// chaos agent can interrupt it mid-flight (default 0: closed loop
	// at full speed).
	Think time.Duration
	// ReportPath, when set, writes every 200 report as one compact
	// JSON line (NDJSON, batch order) for external comparison — the
	// chaos harness diffs these files between an interrupted-and-
	// recovered run and an uninterrupted reference.
	ReportPath string
}

// SessionSummary is the reduced result of a session replay.
type SessionSummary struct {
	SessionID string `json:"session_id"`

	Batches int `json:"batches"`
	Failed  int `json:"failed"`

	// Retried totals re-attempts; DedupHits counts batches answered
	// from the server's idempotency table (journaling servers).
	Retried   int `json:"retried"`
	DedupHits int `json:"dedup_hits"`

	// Updates and Affected total the per-batch report fields: edge
	// updates applied and vertices the restricted recompute relabeled.
	Updates  int `json:"updates"`
	Affected int `json:"affected"`

	// Components is the final report's component count; SimTime the
	// final session clock in simulated bit-times.
	Components int   `json:"components"`
	SimTime    int64 `json:"sim_time_bits"`

	// Per-batch round-trip latency percentiles, ms.
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// CheckoutMs is the session-creation round trip (machine build +
	// initial labeling), the cost the later batches amortize.
	CheckoutMs float64 `json:"checkout_ms"`
}

// keyFor builds one idempotency key, or "" when keys are off.
func (o *SessionOptions) keyFor(suffix string) string {
	if o.KeyPrefix == "" {
		return ""
	}
	return o.KeyPrefix + "-" + suffix
}

// RunSession replays one streamed session end to end — or, with
// SessionID set, resumes an existing (e.g. crash-recovered) session
// and streams batches into it. With KeyPrefix set every request is
// idempotent: resubmitting the same batch sequence after a server
// crash re-executes only the batches the journal never saw and
// answers the rest from the dedup table.
func RunSession(o SessionOptions) (*SessionSummary, error) {
	if o.Batches <= 0 {
		o.Batches = 32
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4
	}
	if o.Client == "" {
		o.Client = "session"
	}
	if o.StartBatch <= 0 {
		o.StartBatch = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}
	base := strings.TrimRight(o.URL, "/")

	s := &SessionSummary{SessionID: o.SessionID}
	var lines [][]byte
	record := func(rep *report.Report) {
		if o.ReportPath == "" {
			return
		}
		// Durability transport metadata is zeroed so a recovered run's
		// lines diff clean against an uninterrupted reference.
		cp := *rep
		cp.Replayed, cp.Deduped = false, false
		if line, err := json.Marshal(&cp); err == nil {
			lines = append(lines, line)
		}
	}

	if s.SessionID == "" {
		t0 := time.Now()
		res, err := postSession(client, base+"/sessions", &o, o.keyFor("create"), &o.Spec)
		if err != nil {
			return nil, fmt.Errorf("checkout: %w", err)
		}
		if res.status != http.StatusOK {
			return nil, fmt.Errorf("checkout: HTTP %d", res.status)
		}
		s.SessionID = res.rep.SessionID
		s.CheckoutMs = float64(time.Since(t0)) / float64(time.Millisecond)
		s.Components = res.rep.Components
		s.SimTime = res.rep.HealthyTime
		s.Retried += res.retries
		if res.deduped {
			s.DedupHits++
		}
	}

	var lat []time.Duration
	body := map[string]int{"count": o.BatchSize}
	for i := 0; i < o.Batches; i++ {
		if i > 0 && o.Think > 0 {
			time.Sleep(o.Think)
		}
		idx := o.StartBatch + i
		bt := time.Now()
		res, err := postSession(client, base+"/sessions/"+s.SessionID+"/updates", &o,
			o.keyFor(fmt.Sprintf("b%d", idx)), body)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", idx, err)
		}
		s.Retried += res.retries
		if res.deduped {
			s.DedupHits++
		}
		if res.status != http.StatusOK {
			s.Failed++
			continue
		}
		lat = append(lat, time.Since(bt))
		s.Batches++
		s.Updates += res.rep.Updates
		s.Affected += res.rep.Affected
		s.Components = res.rep.Components
		s.SimTime = res.rep.HealthyTime
		record(res.rep)
	}

	if !o.KeepOpen {
		req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+s.SessionID, nil)
		if resp, derr := client.Do(req); derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if o.ReportPath != "" {
		blob := bytes.Join(lines, []byte("\n"))
		if len(blob) > 0 {
			blob = append(blob, '\n')
		}
		if err := os.WriteFile(o.ReportPath, blob, 0o644); err != nil {
			return nil, fmt.Errorf("reports: %w", err)
		}
	}

	if len(lat) > 0 {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(lat)-1))
			return float64(lat[i]) / float64(time.Millisecond)
		}
		s.P50ms, s.P90ms, s.P99ms = pct(0.50), pct(0.90), pct(0.99)
		s.MaxMs = float64(lat[len(lat)-1]) / float64(time.Millisecond)
	}
	return s, nil
}

// sessionResult is one session-API round trip (after retries).
type sessionResult struct {
	rep     *report.Report
	status  int
	deduped bool
	retries int
}

// postSession fires one session-API request, retrying sheds and
// transport errors per o.Retries (Retry-After honored, jittered
// exponential backoff), and decodes the report.
func postSession(client *http.Client, url string, o *SessionOptions, key string, body any) (sessionResult, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return sessionResult{}, err
	}
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
		if err != nil {
			return sessionResult{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", o.Client)
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := client.Do(req)
		var res sessionResult
		var retryAfter time.Duration
		retryable := false
		if err != nil {
			retryable = true
			res = sessionResult{retries: attempt}
			if attempt >= o.Retries {
				return res, err
			}
		} else {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			res = sessionResult{status: resp.StatusCode, retries: attempt,
				deduped: resp.Header.Get("Idempotent-Replay") == "true"}
			if resp.StatusCode == http.StatusOK {
				var rep report.Report
				if uerr := json.Unmarshal(raw, &rep); uerr != nil {
					return res, fmt.Errorf("bad report: %w", uerr)
				}
				res.rep = &rep
				return res, nil
			}
			res.rep = &report.Report{}
			retryable = resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusServiceUnavailable
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil {
				retryAfter = time.Duration(secs) * time.Second
			}
			if !retryable || attempt >= o.Retries {
				return res, nil
			}
		}
		wait := backoff
		if retryAfter > wait {
			wait = retryAfter
		}
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait)))
		time.Sleep(wait)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// Text renders the summary as the otload console block.
func (s *SessionSummary) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "session %s: %d batches ok, %d failed, %d updates (%d vertices relabeled)\n",
		s.SessionID, s.Batches, s.Failed, s.Updates, s.Affected)
	if s.Retried > 0 || s.DedupHits > 0 {
		fmt.Fprintf(&b, "  retried %d   dedup hits %d\n", s.Retried, s.DedupHits)
	}
	fmt.Fprintf(&b, "  final: %d components at simulated time %d bit-times\n", s.Components, s.SimTime)
	fmt.Fprintf(&b, "  checkout %.2f ms\n", s.CheckoutMs)
	if s.Batches > 0 {
		fmt.Fprintf(&b, "  batch latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
			s.P50ms, s.P90ms, s.P99ms, s.MaxMs)
	}
	return b.String()
}
