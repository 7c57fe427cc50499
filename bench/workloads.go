package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/server"
)

const (
	serverRate  = 1e6 // otserve -rate and -burst: fairness runs but never sheds
	serverQueue = 64
	maxLanes    = 8 // otserve's default -lanes

	warmup = time.Second
	// Set-up is the median of coldStarts starts, spaced apart so they
	// sample more than one moment of the host's changing speed.
	coldStarts   = 5
	coldStartGap = 250 * time.Millisecond
	oracleJobs   = 2000 // window jobs (or batches) the in-process replay re-executes

	bulkJobs  = 16  // jobs per NDJSON array
	zipfSpecs = 256 // distinct specs behind jobs_zipf
	zipfSkew  = 1.1
	prefill   = 512 // update batches per session before the crash
)

// scenario is one workload: how the server it runs against is set up,
// the operations its clients send, how a reply is judged, and how the
// kept replies are replayed in process.
type scenario interface {
	// setup starts the server the window runs against, timing each of
	// coldStarts starts.
	setup(r *runner) (*serverProc, []time.Duration, error)
	// prepare sends untimed traffic the warm-up should start from.
	prepare(r *runner, c *client) error
	next(cl int) *op
	judge(o *op, status int, body []byte) judged
	// stateful workloads need every earlier reply to replay the window.
	stateful() bool
	// oracleOps is how many window operations the replay covers.
	oracleOps() int64
	// replay re-executes the kept replies in process, turning the
	// tracer on for the window's part, and returns the op indices whose
	// served reply differs from the replay's.
	replay(r *runner, kept []answer, spans bool) (replayed, error)
}

type replayed struct {
	wrong    map[int64]int // op index → jobs answered wrong
	elapsed  time.Duration // the window part
	tr       *tracer
	engineNS map[string]int64
	bitTimes map[string]int64
}

// Seeds. Every job seed comes from the run seed through splitmix64, a
// bijection, so distinct (stream, index) pairs give distinct seeds.
const (
	streamOps = iota + 1
	streamProbe
	streamZipf
	streamSession
)

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func specSeed(seed, stream uint64, i int64) uint64 {
	return splitmix(splitmix(seed) ^ stream<<48 ^ uint64(i))
}

// engineClass is one job class of jobs_engine; label names its
// host-time metric.
type engineClass struct {
	label string
	job   server.Job
}

var oneEvent = 1

// The jobs_engine mix: a plain scalar sort and labeling, the packed
// engine at its largest size, a degraded-mode run and a supervised
// run. The degraded run has one dead edge: with two, about one seed
// in a hundred cuts a leaf off and the job fails.
var engineClasses = []engineClass{
	{"sort64", server.Job{Alg: "sort", N: 64}},
	{"cc64", server.Job{Alg: "cc", N: 64}},
	{"cc1024packed", server.Job{Alg: "cc", N: 1024, Packed: true}},
	{"sort32faults1", server.Job{Alg: "sort", N: 32, Faults: 1}},
	{"cc16events1", server.Job{Alg: "cc", N: 16, Events: &oneEvent}},
}

// engineLabel is the jobs_engine class label of j, or "".
func engineLabel(j *server.Job) string {
	for _, c := range engineClasses {
		if j.Class() == c.job.Class() {
			return c.label
		}
	}
	return ""
}

// jobsWorkload sends POST /jobs: single jobs, or NDJSON arrays.
type jobsWorkload struct {
	r *runner
	// gen returns the jobs of operation idx and, for jobs_zipf, the
	// rank of its spec (else -1).
	gen    func(idx int64) ([]server.Job, int)
	array  bool
	probes []server.Job // one of each class; an array workload sends them as one array
	prime  int          // distinct specs sent once before warm-up
	canon  [][]byte     // first reply per rank (jobs_zipf)
}

func newEngine(r *runner) scenario {
	w := &jobsWorkload{r: r}
	w.gen = func(idx int64) ([]server.Job, int) {
		j := engineClasses[idx%int64(len(engineClasses))].job
		j.Seed = specSeed(r.seed, streamOps, idx)
		return []server.Job{j}, -1
	}
	for k, c := range engineClasses {
		j := c.job
		j.Seed = specSeed(r.seed, streamProbe, int64(k))
		w.probes = append(w.probes, j)
	}
	return w
}

// zipfSpec is spec rank of jobs_zipf: sorts and labelings alternate.
func zipfSpec(seed uint64, rank int) server.Job {
	j := server.Job{Alg: "sort", N: 16}
	if rank%2 == 1 {
		j = server.Job{Alg: "cc", N: 32}
	}
	j.Seed = specSeed(seed, streamZipf, int64(rank))
	return j
}

func newZipf(r *runner) scenario {
	cdf := make([]float64, zipfSpecs)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfSkew)
		cdf[k] = sum
	}
	w := &jobsWorkload{r: r, prime: zipfSpecs, canon: make([][]byte, zipfSpecs)}
	w.gen = func(idx int64) ([]server.Job, int) {
		rank := int(idx)
		if idx >= zipfSpecs {
			u := float64(specSeed(r.seed, streamOps, idx)>>11) / (1 << 53) * sum
			rank = min(sort.SearchFloat64s(cdf, u), zipfSpecs-1)
		}
		return []server.Job{zipfSpec(r.seed, rank)}, rank
	}
	for k := 0; k < 2; k++ {
		j := zipfSpec(r.seed, k)
		j.Seed = specSeed(r.seed, streamProbe, int64(k))
		w.probes = append(w.probes, j)
	}
	return w
}

func newBulk(r *runner) scenario {
	w := &jobsWorkload{r: r, array: true}
	w.gen = func(idx int64) ([]server.Job, int) {
		jobs := make([]server.Job, bulkJobs)
		for k := range jobs {
			jobs[k] = server.Job{Alg: "sort", N: 64, Seed: specSeed(r.seed, streamOps, idx*bulkJobs+int64(k))}
		}
		return jobs, -1
	}
	for k := 0; k < bulkJobs; k++ {
		w.probes = append(w.probes, server.Job{Alg: "sort", N: 64, Seed: specSeed(r.seed, streamProbe, int64(k))})
	}
	return w
}

// encode builds the op carrying jobs; ids name the op and lane.
func (w *jobsWorkload) encode(idx int64, jobs []server.Job, rank int) *op {
	for k := range jobs {
		jobs[k].ID = "j" + strconv.FormatInt(idx, 10)
		if w.array {
			jobs[k].ID += "-" + strconv.Itoa(k)
		}
	}
	var body []byte
	if w.array {
		body, _ = json.Marshal(jobs)
	} else {
		body, _ = json.Marshal(jobs[0])
	}
	return &op{idx: idx, path: "/jobs", body: body, jobs: len(jobs), rank: rank}
}

func (w *jobsWorkload) next(int) *op {
	idx := w.r.seq.Add(1) - 1
	jobs, rank := w.gen(idx)
	return w.encode(idx, jobs, rank)
}

// probeOps are the set-up requests, numbered below zero so they sort
// ahead of every operation.
func (w *jobsWorkload) probeOps() []*op {
	if w.array {
		return []*op{w.encode(-1, append([]server.Job(nil), w.probes...), -1)}
	}
	ops := make([]*op, len(w.probes))
	for k, j := range w.probes {
		ops[k] = w.encode(int64(k-len(w.probes)), []server.Job{j}, -1)
	}
	return ops
}

func (w *jobsWorkload) setup(r *runner) (*serverProc, []time.Duration, error) {
	probes := w.probeOps()
	first := true
	return r.timeStarts(nil, func(c *client) error {
		var buf bytes.Buffer
		for _, o := range probes {
			status, err := c.do(r.ctx, http.MethodPost, o.path, o.body, nil, &buf)
			if err != nil {
				return err
			}
			if w.judge(o, status, buf.Bytes()).ok != o.jobs {
				return fmt.Errorf("set-up request %s: status %d: %.200s", o.body, status, buf.Bytes())
			}
			if first {
				r.keep(o, buf.Bytes())
			}
		}
		first = false
		return nil
	})
}

// prepare submits every jobs_zipf spec once, so the warm-up starts
// from a full result cache and each spec's first reply is on record.
func (w *jobsWorkload) prepare(r *runner, c *client) error {
	if w.prime == 0 {
		return nil
	}
	t := phase(r.ctx, c, r.clients, func(int) *op {
		idx := r.seq.Add(1) - 1
		if idx >= int64(w.prime) {
			return nil
		}
		jobs, rank := w.gen(idx)
		return w.encode(idx, jobs, rank)
	}, w.judge, func(*op) bool { return true })
	r.seq.Store(int64(w.prime))
	r.prep.add(t)
	if t.failed+t.wrong > 0 {
		return fmt.Errorf("%d of %d priming jobs failed", t.failed+t.wrong, t.attempted)
	}
	for _, a := range t.kept {
		w.canon[a.op.rank] = a.body
	}
	return nil
}

var (
	okLine    = []byte(`"status":"ok"`)
	recovered = []byte(`"recovered": true`)
)

func (w *jobsWorkload) judge(o *op, status int, body []byte) judged {
	if status != http.StatusOK {
		return judged{failed: o.jobs}
	}
	if w.array {
		ok := 0
		for _, line := range bytes.Split(body, []byte{'\n'}) {
			if bytes.Contains(line, okLine) {
				ok++
			}
		}
		ok = min(ok, o.jobs)
		return judged{ok: ok, failed: o.jobs - ok}
	}
	if !bytes.Contains(body, recovered) {
		return judged{failed: 1}
	}
	if o.rank >= 0 && w.canon[o.rank] != nil && !sameAnswer(w.canon[o.rank], body) {
		return judged{wrong: 1}
	}
	return judged{ok: 1}
}

// transportFields are the reply lines that may differ between answers
// to one spec: who asked and how it was served.
var transportFields = [][]byte{[]byte(`"job_id":`), []byte(`"cached":`), []byte(`"coalesced":`)}

// sameAnswer compares two indented replies line by line, ignoring the
// transport fields and the trailing commas their removal shifts.
func sameAnswer(a, b []byte) bool {
	next := func(s []byte) ([]byte, []byte) {
		for len(s) > 0 {
			line := s
			rest := []byte(nil)
			if i := bytes.IndexByte(s, '\n'); i >= 0 {
				line, rest = s[:i], s[i+1:]
			}
			line = bytes.TrimSuffix(bytes.TrimSpace(line), []byte{','})
			skip := len(line) == 0
			for _, f := range transportFields {
				skip = skip || bytes.HasPrefix(line, f)
			}
			if !skip {
				return line, rest
			}
			s = rest
		}
		return nil, nil
	}
	for {
		var la, lb []byte
		la, a = next(a)
		lb, b = next(b)
		if !bytes.Equal(la, lb) {
			return false
		}
		if la == nil {
			return true
		}
	}
}

func (w *jobsWorkload) stateful() bool { return false }

func (w *jobsWorkload) oracleOps() int64 {
	if w.array {
		return oracleJobs / bulkJobs
	}
	return oracleJobs
}

func (w *jobsWorkload) replay(r *runner, kept []answer, spans bool) (replayed, error) {
	tr := newTracer(false)
	p := newJobsPipeline(tr, r.clients)
	out := replayed{wrong: map[int64]int{}, tr: tr, engineNS: p.engineNS, bitTimes: p.bitTimes}
	var start time.Time
	for _, a := range kept {
		if a.op.idx >= r.winStart && start.IsZero() {
			tr.on, start = spans, time.Now()
		}
		if w.array {
			reps, err := p.array(a.op.idx, a.op.body, "c0")
			if err != nil {
				return out, fmt.Errorf("replay op %d: %w", a.op.idx, err)
			}
			if n := arrayMismatches(a.body, reps); n > 0 {
				out.wrong[a.op.idx] = n
			}
			continue
		}
		rep, err := p.single(a.op.idx, a.op.body, "c0")
		if err != nil && rep == nil {
			return out, fmt.Errorf("replay op %d: %w", a.op.idx, err)
		}
		var got report.Report
		if json.Unmarshal(a.body, &got) != nil || got.JobID != rep.JobID || !got.Same(rep) {
			out.wrong[a.op.idx] = 1
		}
	}
	if !start.IsZero() {
		out.elapsed = time.Since(start)
	}
	return out, nil
}

// arrayMismatches counts the ok lines of an NDJSON reply that are not
// the replay's report for their job id.
func arrayMismatches(body []byte, reps []*report.Report) int {
	byID := map[string]*report.Report{}
	for _, rep := range reps {
		byID[rep.JobID] = rep
	}
	n := 0
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		var it streamItem
		if len(bytes.TrimSpace(line)) == 0 || json.Unmarshal(line, &it) != nil || it.Status != "ok" {
			continue
		}
		if want := byID[it.JobID]; want == nil || !it.Report.Same(want) {
			n++
		}
	}
	return n
}

// sessionsWorkload streams update batches into a pair of sessions on
// a journaled server that was killed and restarted.
type sessionsWorkload struct {
	r     *runner
	specs []server.SessionSpec
	ids   []string
	sent  []int64 // per client: ops sent so far
	dir   string  // the server's journal
}

var countBody = []byte(`{"count":4}`)

func newSessions(r *runner) scenario {
	return &sessionsWorkload{
		r: r,
		specs: []server.SessionSpec{
			// Stout's pixel-flip stream on a 32×32 image, packed engine.
			{N: 1024, Seed: specSeed(r.seed, streamSession, 0), Grid: true, Packed: true},
			// Random edge toggles on a sparse Gnp graph, scalar engine.
			{N: 64, Seed: specSeed(r.seed, streamSession, 1)},
		},
		sent: make([]int64, r.clients),
		dir:  filepath.Join(r.out, "journal-sessions_durable"),
	}
}

// next sends client cl's k-th batch to session (cl + k·clients) mod 2:
// with two clients each keeps to one session; with one it alternates.
func (w *sessionsWorkload) next(cl int) *op {
	k := w.sent[cl]
	w.sent[cl]++
	si := (cl + int(k)*w.r.clients) % len(w.ids)
	idx := w.r.seq.Add(1) - 1
	return &op{idx: idx, path: "/sessions/" + w.ids[si] + "/updates", body: countBody,
		key: "k" + strconv.FormatInt(idx, 10), jobs: 1, sess: si}
}

func (w *sessionsWorkload) judge(o *op, status int, body []byte) judged {
	if status != http.StatusOK || !bytes.Contains(body, recovered) {
		return judged{failed: 1}
	}
	return judged{ok: 1}
}

func (w *sessionsWorkload) stateful() bool                 { return true }
func (w *sessionsWorkload) oracleOps() int64               { return oracleJobs }
func (w *sessionsWorkload) prepare(*runner, *client) error { return nil }

// setup creates the sessions on a fresh journal, prefills them, kills
// the server with SIGKILL, then times restarts: exec, journal replay,
// /healthz, and both sessions readable with every prefilled batch.
func (w *sessionsWorkload) setup(r *runner) (*serverProc, []time.Duration, error) {
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, nil, err
	}
	p, err := r.start("-journal", w.dir)
	if err != nil {
		return nil, nil, err
	}
	defer p.kill()
	c := newClient(p.base, r.clients)
	defer c.close()
	if err := c.healthy(r.ctx); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	for i, spec := range w.specs {
		body, _ := json.Marshal(spec)
		o := &op{idx: r.seq.Add(1) - 1, path: "/sessions", body: body, jobs: 1, sess: i}
		status, err := c.do(r.ctx, http.MethodPost, o.path, o.body, nil, &buf)
		var rep report.Report
		if err == nil && (status != http.StatusOK || json.Unmarshal(buf.Bytes(), &rep) != nil) {
			err = fmt.Errorf("create session %s: status %d: %.200s", body, status, buf.Bytes())
		}
		if err != nil {
			return nil, nil, err
		}
		w.ids = append(w.ids, rep.SessionID)
		r.keep(o, buf.Bytes())
	}
	quota := int64(prefill * len(w.specs) / r.clients)
	t := phase(r.ctx, c, r.clients, func(cl int) *op {
		if w.sent[cl] >= quota {
			return nil
		}
		return w.next(cl)
	}, w.judge, func(*op) bool { return true })
	r.prep.add(t)
	if t.failed > 0 {
		return nil, nil, fmt.Errorf("%d of %d prefill batches failed", t.failed, t.attempted)
	}
	want := make([]int, len(w.ids))
	for _, a := range t.kept {
		want[a.op.sess]++
	}
	p.kill()

	return r.timeStarts([]string{"-journal", w.dir}, func(c *client) error {
		for i, id := range w.ids {
			var info struct {
				Batches int `json:"batches"`
			}
			if err := c.getJSON(r.ctx, "/sessions/"+id, &info); err != nil {
				return err
			}
			if info.Batches != want[i] {
				return fmt.Errorf("session %s recovered %d batches, %d were acknowledged", id, info.Batches, want[i])
			}
		}
		return nil
	})
}

func (w *sessionsWorkload) replay(r *runner, kept []answer, spans bool) (replayed, error) {
	tr := newTracer(false)
	p := newSessionsPipeline(tr, 2*r.clients)
	out := replayed{wrong: map[int64]int{}, tr: tr}
	jdir := filepath.Join(r.out, "replay-journal")
	defer os.RemoveAll(jdir)
	defer func() {
		if p.jl != nil {
			p.jl.Close()
		}
	}()
	// Replay every batch first, then compare each reply with the
	// replay's report of the batch it names, so the check holds
	// whichever order a session's batches arrived in.
	byBatch := make([][]*report.Report, len(w.ids))
	var start time.Time
	for _, a := range kept {
		if a.op.path == "/sessions" {
			rep, err := p.create(w.ids[a.op.sess], w.specs[a.op.sess])
			if err != nil {
				return out, err
			}
			byBatch[a.op.sess] = append(byBatch[a.op.sess], rep)
			continue
		}
		if a.op.idx >= r.winStart && start.IsZero() {
			if err := os.RemoveAll(jdir); err != nil {
				return out, err
			}
			jl, err := journal.Open(jdir)
			if err != nil {
				return out, err
			}
			p.jl = jl
			tr.on, start = spans, time.Now()
		}
		rep, err := p.update(a.op.idx, a.op.sess, a.op.key, a.op.body)
		if err != nil {
			return out, fmt.Errorf("replay op %d: %w", a.op.idx, err)
		}
		byBatch[a.op.sess] = append(byBatch[a.op.sess], rep)
	}
	if !start.IsZero() {
		out.elapsed = time.Since(start)
	}
	for _, a := range kept {
		var got report.Report
		ok := json.Unmarshal(a.body, &got) == nil && got.SessionID == w.ids[a.op.sess]
		if reps := byBatch[a.op.sess]; ok && got.Batch < len(reps) {
			ok = got.Same(reps[got.Batch])
		} else {
			ok = false
		}
		if !ok {
			out.wrong[a.op.idx] = 1
		}
	}
	return out, nil
}
