// Package loadgen drives an otserve instance with synthetic open-loop
// traffic: arrivals fire on a precomputed schedule (Poisson, uniform
// or bursty) regardless of how the server is coping, which is exactly
// the regime the admission ladder exists for. It records per-request
// outcomes and reduces them to latency percentiles, shed rates and
// per-client fairness counts. cmd/otload is a thin wrapper around Run
// and RunSession.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Options configures one load run.
type Options struct {
	// URL is the server base URL (e.g. http://localhost:8080).
	URL string
	// Rate is the offered load in jobs/second (default 50).
	Rate float64
	// Duration bounds the arrival schedule (default 2s).
	Duration time.Duration
	// Arrival is the process: "poisson" (default), "uniform" or
	// "bursty" (3× rate for one third of each 600ms cycle — same mean
	// load, maximal queue pressure).
	Arrival string
	// Clients spreads requests over this many client IDs round-robin
	// (default 4).
	Clients int
	// Misbehave adds one extra client ("flood") firing at 4× Rate on
	// its own Poisson schedule, never backing off — the per-client
	// fairness layer should shed it without hurting the others.
	Misbehave bool
	// Seed makes the schedule and per-job seeds reproducible.
	Seed uint64
	// Job is the request template; per-request ID, Client and Seed are
	// filled in (Seed = template Seed + request index).
	Job server.Job
	// MaxJobs caps the schedule (default 100000).
	MaxJobs int
	// Retries is the number of re-attempts after a 429/503 shed or a
	// transport error (default 0 = fire and forget). Retried requests
	// honor the server's Retry-After header, back off exponentially
	// with jitter, and carry an Idempotency-Key on EVERY attempt so a
	// response the client lost is answered from the server's dedup
	// table instead of re-executing.
	Retries int
	// RunID salts the idempotency keys so runs against a long-lived
	// journaling server never collide; Run fills in a timestamp when
	// empty.
	RunID string
	// ZipfSpecs, when positive, draws each request's workload seed from
	// a Zipf-distributed popularity over this many distinct specs
	// instead of giving every request its own — the compute-once
	// regime: a few hot specs dominate the offered load, so a
	// result-cache-enabled server answers most requests from stored
	// bytes (the ledger counts them via the X-Result-Cache header).
	// ZipfS is the skew exponent (default 1.2; must be > 1).
	ZipfSpecs int
	ZipfS     float64

	// specSeq is the precomputed per-request spec draw (zipf mode).
	specSeq []uint64
}

// Outcome is one request's fate.
type Outcome struct {
	Client  string
	Status  int // HTTP status; 0 = transport error
	Reason  string
	Latency time.Duration
	Err     error
	Retries int    // re-attempts this request needed
	Deduped bool   // answered from the server's idempotency table
	Cache   string // X-Result-Cache: "hit", "coalesced" or ""
}

// ClientStats is the fairness ledger for one client ID.
type ClientStats struct {
	Sent      int `json:"sent"`
	OK        int `json:"ok"`
	Shed      int `json:"shed"`       // 429s (queue or rate)
	Deduped   int `json:"deduped"`    // answers served from the idempotency table
	CacheHits int `json:"cache_hits"` // answers served by the result cache (hit or coalesced)
}

// Summary is the reduced result of a run.
type Summary struct {
	Offered   int     `json:"offered"`
	OfferedPS float64 `json:"offered_jobs_per_sec"`
	Elapsed   float64 `json:"elapsed_sec"`

	OK        int `json:"ok"`
	Shed      int `json:"shed_429"`
	Unavail   int `json:"unavailable_503"`
	Deadline  int `json:"deadline_504"`
	Invalid   int `json:"invalid_400"`
	Failed    int `json:"failed_5xx"`
	Transport int `json:"transport_errors"`

	// Retried totals the re-attempts the run needed; DedupHits counts
	// the answers the server served from its idempotency table instead
	// of re-executing (journaling servers only).
	Retried   int `json:"retried"`
	DedupHits int `json:"dedup_hits"`

	// CacheHits counts answers served from the server's result cache
	// (X-Result-Cache: hit); CacheCoalesced counts answers that rode a
	// concurrent identical execution (X-Result-Cache: coalesced).
	CacheHits      int `json:"cache_hits"`
	CacheCoalesced int `json:"cache_coalesced"`

	ShedRate float64 `json:"shed_rate"` // (429+503)/offered

	// Latency percentiles over successful (200) requests, ms.
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	PerClient map[string]*ClientStats `json:"per_client"`
}

type arrival struct {
	at     time.Duration
	client string
	index  int
}

// schedule precomputes every arrival offset for determinism.
func schedule(o *Options, rng *rand.Rand) []arrival {
	var out []arrival
	clientOf := func(i int) string { return fmt.Sprintf("c%d", i%o.Clients) }
	push := func(at time.Duration, client string) {
		out = append(out, arrival{at: at, client: client, index: len(out)})
	}
	mean := 1.0 / o.Rate
	var t float64
	i := 0
	for time.Duration(t*float64(time.Second)) < o.Duration && len(out) < o.MaxJobs {
		push(time.Duration(t*float64(time.Second)), clientOf(i))
		i++
		switch o.Arrival {
		case "uniform":
			t += mean
		case "bursty":
			// 600ms cycle: first 200ms carries all the cycle's mass at
			// 3× rate, the rest is silence.
			t += mean / 3
			if phase := t - float64(int(t/0.6))*0.6; phase > 0.2 {
				t = float64(int(t/0.6))*0.6 + 0.6 // skip to next burst
			}
		default: // poisson
			t += rng.ExpFloat64() * mean
		}
	}
	if o.Misbehave {
		var ft float64
		fmean := mean / 4
		for time.Duration(ft*float64(time.Second)) < o.Duration && len(out) < o.MaxJobs {
			ft += rng.ExpFloat64() * fmean
			push(time.Duration(ft*float64(time.Second)), "flood")
		}
		sort.Slice(out, func(a, b int) bool { return out[a].at < out[b].at })
		for i := range out {
			out[i].index = i
		}
	}
	return out
}

// Run executes the load profile and blocks until every response (or
// transport error) is in.
func Run(o Options) (*Summary, error) {
	if o.Rate <= 0 {
		o.Rate = 50
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 100000
	}
	if o.Arrival == "" {
		o.Arrival = "poisson"
	}
	if o.RunID == "" {
		o.RunID = fmt.Sprintf("run-%d", time.Now().UnixNano())
	}
	client := &http.Client{Timeout: 30 * time.Second}
	rng := rand.New(rand.NewSource(int64(o.Seed)))
	plan := schedule(&o, rng)
	if len(plan) == 0 {
		return nil, fmt.Errorf("loadgen: empty schedule (rate %.1f, duration %s)", o.Rate, o.Duration)
	}
	if o.ZipfSpecs > 0 {
		if o.ZipfS <= 1 {
			o.ZipfS = 1.2
		}
		// Draws are precomputed in schedule order so the spec-popularity
		// sequence is deterministic regardless of response timing.
		z := rand.NewZipf(rng, o.ZipfS, 1, uint64(o.ZipfSpecs-1))
		o.specSeq = make([]uint64, len(plan))
		for i := range o.specSeq {
			o.specSeq[i] = z.Uint64()
		}
	}

	outcomes := make([]Outcome, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range plan {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			outcomes[a.index] = post(client, &o, a)
		}(a)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return reduce(outcomes, elapsed), nil
}

// post fires one request — the template with per-request identity —
// and, when Retries > 0, re-attempts shed (429/503) and transport
// failures with jittered exponential backoff. Every attempt of a
// retried request carries the same Idempotency-Key, so an answer the
// transport lost comes back from the server's idempotency store
// rather than a second execution.
func post(client *http.Client, o *Options, a arrival) Outcome {
	job := o.Job
	job.ID = fmt.Sprintf("req-%d", a.index)
	job.Client = a.client
	job.Seed = o.Job.Seed + uint64(a.index)
	if o.specSeq != nil {
		// Zipf popularity: many requests share few hot seeds.
		job.Seed = o.Job.Seed + o.specSeq[a.index]
	}
	if o.Retries > 0 {
		job.IdemKey = fmt.Sprintf("%s-%s-req-%d", o.RunID, a.client, a.index)
	}
	body, _ := json.Marshal(&job)
	url := strings.TrimRight(o.URL, "/") + "/jobs"
	jrng := rand.New(rand.NewSource(int64(o.Seed) ^ int64(a.index)))

	var out Outcome
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if job.IdemKey != "" {
			req.Header.Set("Idempotency-Key", job.IdemKey)
		}
		resp, err := client.Do(req)
		out = Outcome{Client: a.client, Latency: time.Since(t0), Retries: attempt}
		var retryAfter time.Duration
		if err != nil {
			out.Err = err
		} else {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			out.Status = resp.StatusCode
			out.Latency = time.Since(t0)
			out.Deduped = resp.Header.Get("Idempotent-Replay") == "true"
			out.Cache = resp.Header.Get("X-Result-Cache")
			if resp.StatusCode != http.StatusOK {
				var shed struct {
					Reason string `json:"reason"`
				}
				if json.Unmarshal(raw, &shed) == nil {
					out.Reason = shed.Reason
				}
				if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil {
					retryAfter = time.Duration(secs) * time.Second
				}
			}
		}
		retryable := out.Err != nil ||
			out.Status == http.StatusTooManyRequests ||
			out.Status == http.StatusServiceUnavailable
		if !retryable || attempt >= o.Retries {
			return out
		}
		// Honor the server's hint, floored by our own exponential
		// backoff, with ±50% jitter so retry storms decorrelate.
		wait := backoff
		if retryAfter > wait {
			wait = retryAfter
		}
		wait = wait/2 + time.Duration(jrng.Int63n(int64(wait)))
		time.Sleep(wait)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// reduce folds outcomes into the summary.
func reduce(outcomes []Outcome, elapsed time.Duration) *Summary {
	s := &Summary{
		Offered: len(outcomes), Elapsed: elapsed.Seconds(),
		PerClient: make(map[string]*ClientStats),
	}
	if s.Elapsed > 0 {
		s.OfferedPS = float64(s.Offered) / s.Elapsed
	}
	var okLat []time.Duration
	for _, o := range outcomes {
		cs := s.PerClient[o.Client]
		if cs == nil {
			cs = &ClientStats{}
			s.PerClient[o.Client] = cs
		}
		cs.Sent++
		s.Retried += o.Retries
		if o.Deduped {
			s.DedupHits++
			cs.Deduped++
		}
		switch o.Cache {
		case "hit":
			s.CacheHits++
			cs.CacheHits++
		case "coalesced":
			s.CacheCoalesced++
			cs.CacheHits++
		}
		switch {
		case o.Err != nil || o.Status == 0:
			s.Transport++
		case o.Status == http.StatusOK:
			s.OK++
			cs.OK++
			okLat = append(okLat, o.Latency)
		case o.Status == http.StatusTooManyRequests:
			s.Shed++
			cs.Shed++
		case o.Status == http.StatusServiceUnavailable:
			s.Unavail++
			cs.Shed++
		case o.Status == http.StatusGatewayTimeout:
			s.Deadline++
		case o.Status == http.StatusBadRequest:
			s.Invalid++
		default:
			s.Failed++
		}
	}
	if s.Offered > 0 {
		s.ShedRate = float64(s.Shed+s.Unavail) / float64(s.Offered)
	}
	if len(okLat) > 0 {
		sort.Slice(okLat, func(a, b int) bool { return okLat[a] < okLat[b] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(okLat)-1))
			return float64(okLat[i]) / float64(time.Millisecond)
		}
		s.P50ms, s.P90ms, s.P99ms = pct(0.50), pct(0.90), pct(0.99)
		s.MaxMs = float64(okLat[len(okLat)-1]) / float64(time.Millisecond)
	}
	return s
}

// Text renders the summary as the otload console table.
func (s *Summary) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d jobs in %.2fs (%.1f jobs/s)\n", s.Offered, s.Elapsed, s.OfferedPS)
	fmt.Fprintf(&b, "  ok %d   shed-429 %d   unavailable-503 %d   deadline-504 %d   invalid-400 %d   failed-5xx %d   transport %d\n",
		s.OK, s.Shed, s.Unavail, s.Deadline, s.Invalid, s.Failed, s.Transport)
	fmt.Fprintf(&b, "  shed rate %.1f%%\n", 100*s.ShedRate)
	if s.Retried > 0 || s.DedupHits > 0 {
		fmt.Fprintf(&b, "  retried %d   dedup hits %d\n", s.Retried, s.DedupHits)
	}
	if s.CacheHits > 0 || s.CacheCoalesced > 0 {
		served := s.CacheHits + s.CacheCoalesced
		rate := 0.0
		if s.OK > 0 {
			rate = 100 * float64(served) / float64(s.OK)
		}
		fmt.Fprintf(&b, "  result cache: hits %d   coalesced %d   (%.1f%% of ok answers)\n",
			s.CacheHits, s.CacheCoalesced, rate)
	}
	if s.OK > 0 {
		fmt.Fprintf(&b, "  latency ms (ok): p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
			s.P50ms, s.P90ms, s.P99ms, s.MaxMs)
	}
	clients := make([]string, 0, len(s.PerClient))
	for c := range s.PerClient {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		cs := s.PerClient[c]
		fmt.Fprintf(&b, "  client %-6s sent %-5d ok %-5d shed %-5d", c, cs.Sent, cs.OK, cs.Shed)
		if cs.CacheHits > 0 {
			fmt.Fprintf(&b, " cache %-5d", cs.CacheHits)
		}
		b.WriteString("\n")
	}
	return b.String()
}
