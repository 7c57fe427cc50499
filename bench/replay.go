package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/mcache"
	"repro/internal/packed"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// This file replays served operations in process, calling each
// layer's public entry points in the order the server calls them and
// recording a span around each call. The replay is also the oracle:
// its results must equal what the server answered. It mirrors
// internal/server's handlers and executor for the specs this benchmark
// sends (OTN network, log-delay model); the executor test in this
// package keeps the mirror from drifting.

// jobsPipeline replays POST /jobs: single jobs and NDJSON arrays.
type jobsPipeline struct {
	tr      *tracer
	cache   *mcache.Cache
	resc    *rescache.Cache
	breaker *server.Breaker
	fair    *server.Fairness
	// Engine time and simulated bit-times per jobs_engine class label,
	// summed over traced requests.
	engineNS, bitTimes map[string]int64
}

// newJobsPipeline builds the layers as otserve configures them under
// the benchmark's flags: machine-cache shards as wide as the worker
// pool, the default breaker, and a fairness bucket too large to shed.
func newJobsPipeline(tr *tracer, workers int) *jobsPipeline {
	return &jobsPipeline{
		tr:       tr,
		cache:    mcache.NewWithCapacity(workers),
		resc:     rescache.New(0),
		breaker:  server.NewBreaker(3, 0, 0, nil),
		fair:     server.NewFairness(serverRate, serverRate, nil),
		engineNS: map[string]int64{}, bitTimes: map[string]int64{},
	}
}

func jobConfig(j *server.Job) vlsi.Config {
	return vlsi.Config{WordBits: vlsi.WordBitsFor(j.N * j.N), Model: vlsi.LogDelay{}}
}

func checkMirrored(j *server.Job) error {
	if (j.Network != "" && j.Network != "otn") || (j.Model != "" && j.Model != "log") {
		return fmt.Errorf("replay mirrors otn/log jobs only, got %s", j.Class())
	}
	return nil
}

// admit mirrors the handler's gate: validation, breaker, fairness.
func (p *jobsPipeline) admit(req int64, root int32, j *server.Job, client string) error {
	s := p.tr.begin(req, stAdmit, root)
	defer p.tr.end(s)
	if err := j.Validate(); err != nil {
		return err
	}
	if err := checkMirrored(j); err != nil {
		return err
	}
	j.Client = client
	if ok, _, _ := p.breaker.Allow(j.Class()); !ok {
		return fmt.Errorf("breaker open for %s", j.Class())
	}
	if ok, _ := p.fair.Allow(client); !ok {
		return fmt.Errorf("client %s over rate", client)
	}
	return nil
}

// record mirrors the pool feeding the breaker after a run.
func (p *jobsPipeline) record(req int64, root int32, class string, err error) {
	s := p.tr.begin(req, stAdmit, root)
	if err == nil || server.Counts(err) {
		p.breaker.Record(class, err)
	}
	p.tr.end(s)
}

// single replays one POST /jobs with a job object and returns the
// report the server would answer.
func (p *jobsPipeline) single(req int64, body []byte, client string) (*report.Report, error) {
	root := p.tr.begin(req, stRequest, -1)
	defer p.tr.end(root)
	s := p.tr.begin(req, stDecode, root)
	var j server.Job
	err := json.Unmarshal(body, &j)
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	if err := p.admit(req, root, &j, client); err != nil {
		return nil, err
	}
	s = p.tr.begin(req, stRescache, root)
	fp := j.Fingerprint()
	cached, fl, _ := p.resc.Lookup(fp)
	p.tr.end(s)
	if cached != nil {
		s = p.tr.begin(req, stEncode, root)
		defer p.tr.end(s)
		return relabel(cached, j.ID)
	}
	// A serial replay has no concurrent identical spec, so a miss leads.
	rep, err := p.exec(req, root, &j)
	p.record(req, root, j.Class(), err)
	var canon []byte
	if err == nil {
		s = p.tr.begin(req, stEncode, root)
		canon = canonicalBody(rep)
		renderJSON(rep) // the reply itself
		p.tr.end(s)
	}
	s = p.tr.begin(req, stRescache, root)
	p.resc.Resolve(fp, fl, nil, canon)
	p.tr.end(s)
	return rep, err
}

// streamItem is one NDJSON line of an array reply.
type streamItem struct {
	JobID  string         `json:"job_id,omitempty"`
	Status string         `json:"status"`
	Error  string         `json:"error,omitempty"`
	Report *report.Report `json:"report,omitempty"`
}

// array replays one POST /jobs with an array of plain sorts: gate and
// look up each job, run the misses in lanes of at most maxLanes
// through one core.Batch each, and encode one line per job.
func (p *jobsPipeline) array(req int64, body []byte, client string) ([]*report.Report, error) {
	root := p.tr.begin(req, stRequest, -1)
	defer p.tr.end(root)
	s := p.tr.begin(req, stDecode, root)
	var jobs []*server.Job
	err := json.Unmarshal(body, &jobs)
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	reps := make([]*report.Report, len(jobs))
	type miss struct {
		i  int
		fp string
		fl *rescache.Flight
	}
	var misses []miss
	var enc bytes.Buffer
	for i, j := range jobs {
		if j == nil {
			return nil, fmt.Errorf("null job")
		}
		if err := p.admit(req, root, j, client); err != nil {
			return nil, err
		}
		if !j.Batchable() {
			return nil, fmt.Errorf("replay batches plain sorts only, got %s", j.Class())
		}
		s = p.tr.begin(req, stRescache, root)
		fp := j.Fingerprint()
		cached, fl, _ := p.resc.Lookup(fp)
		p.tr.end(s)
		if cached != nil {
			s = p.tr.begin(req, stEncode, root)
			reps[i], err = relabel(cached, j.ID)
			json.NewEncoder(&enc).Encode(streamItem{JobID: j.ID, Status: "ok", Report: reps[i]})
			p.tr.end(s)
			if err != nil {
				return nil, err
			}
			continue
		}
		misses = append(misses, miss{i, fp, fl})
	}
	for lo := 0; lo < len(misses); lo += maxLanes {
		group := misses[lo:min(lo+maxLanes, len(misses))]
		lane := make([]*server.Job, len(group))
		for k, m := range group {
			lane[k] = jobs[m.i]
		}
		out, err := p.batch(req, root, lane)
		p.record(req, root, lane[0].Class(), err)
		if err != nil {
			return nil, err
		}
		for k, m := range group {
			reps[m.i] = out[k]
			s = p.tr.begin(req, stEncode, root)
			canon := canonicalBody(out[k])
			json.NewEncoder(&enc).Encode(streamItem{JobID: lane[k].ID, Status: "ok", Report: out[k]})
			p.tr.end(s)
			s = p.tr.begin(req, stRescache, root)
			p.resc.Resolve(m.fp, m.fl, nil, canon)
			p.tr.end(s)
		}
	}
	return reps, nil
}

// exec mirrors Executor.Run: supervised, packed or plain.
func (p *jobsPipeline) exec(req int64, root int32, j *server.Job) (*report.Report, error) {
	switch {
	case j.Supervised():
		return p.supervised(req, root, j)
	case j.Packed:
		s := p.tr.begin(req, stEnginePacked, root)
		rep, err := runPacked(j)
		p.noteEngine(j, rep, p.tr.end(s))
		return rep, err
	case j.Faults > 0:
		return p.plain(req, root, j, stEngineResilience)
	default:
		return p.plain(req, root, j, stEngineScalar)
	}
}

// noteEngine accumulates host engine time against simulated time for
// the jobs_engine classes.
func (p *jobsPipeline) noteEngine(j *server.Job, rep *report.Report, d time.Duration) {
	if !p.tr.on || rep == nil {
		return
	}
	if label := engineLabel(j); label != "" {
		p.engineNS[label] += d.Nanoseconds()
		p.bitTimes[label] += rep.Time
	}
}

// checkout and release mirror the executor's machine-cache calls.
func (p *jobsPipeline) checkout(req int64, root int32, j *server.Job) (*core.Machine, error) {
	s := p.tr.begin(req, stMcache, root)
	defer p.tr.end(s)
	key := mcache.OTNKey(j.N, jobConfig(j))
	return p.cache.CheckoutContext(context.Background(), key, func() (*core.Machine, error) {
		return core.New(j.N, jobConfig(j))
	})
}

func (p *jobsPipeline) release(req int64, root int32, j *server.Job, m *core.Machine) {
	s := p.tr.begin(req, stMcache, root)
	p.cache.Return(mcache.OTNKey(j.N, jobConfig(j)), m)
	p.tr.end(s)
}

// runPacked mirrors Executor.runPacked.
func runPacked(j *server.Job) (*report.Report, error) {
	eng, err := packed.EngineFor(j.N, jobConfig(j), false)
	if err != nil {
		return nil, err
	}
	g := workload.NewRNG(j.Seed).Gnp(j.N, 2.0/float64(j.N))
	_, elapsed := eng.Components(g, 0)
	metric := vlsi.Metric{Area: eng.Area(), Time: elapsed}
	return &report.Report{
		Alg: j.Alg, Network: "otn", Model: vlsi.LogDelay{}.Name(), N: j.N, Seed: j.Seed,
		Time: int64(elapsed), Area: int64(eng.Area()), AT2: metric.AT2(),
		Recovered: true, JobID: j.ID,
	}, nil
}

// plain mirrors Executor.runPlain.
func (p *jobsPipeline) plain(req int64, root int32, j *server.Job, st stage) (*report.Report, error) {
	m, err := p.checkout(req, root, j)
	if err != nil {
		return nil, err
	}
	defer p.release(req, root, j, m)
	s := p.tr.begin(req, st, root)
	rep, runErr := func() (*report.Report, error) {
		if j.Faults > 0 {
			if err := m.InjectFaults(fault.Random(j.N, j.Faults, j.Seed)); err != nil {
				return nil, err
			}
		}
		rng := workload.NewRNG(j.Seed)
		var elapsed vlsi.Time
		if j.Alg == "sort" {
			_, elapsed = sorting.SortOTN(m, rng.Perm(j.N), 0)
		} else {
			graph.LoadGraph(m, rng.Gnp(j.N, 2.0/float64(j.N)))
			_, elapsed = graph.ConnectedComponents(m, 0)
		}
		runErr := m.Err()
		metric := vlsi.Metric{Area: m.Area(), Time: elapsed}
		rep := &report.Report{
			Alg: j.Alg, Network: "otn", Model: vlsi.LogDelay{}.Name(), N: j.N, Seed: j.Seed,
			Time: int64(elapsed), Area: int64(m.Area()), AT2: metric.AT2(),
			Faults: j.Faults, Recovered: runErr == nil, JobID: j.ID,
		}
		if j.Faults > 0 {
			rep.Health = report.HealthOf(m.Health())
		}
		if runErr != nil {
			rep.Error = runErr.Error()
		}
		return rep, runErr
	}()
	p.noteEngine(j, rep, p.tr.end(s))
	return rep, runErr
}

// supervised mirrors Executor.runSupervised: a fault-free baseline on
// one machine, then the supervised run on another, checked out one
// after the other.
func (p *jobsPipeline) supervised(req int64, root int32, j *server.Job) (*report.Report, error) {
	healthy, err := p.checkout(req, root, j)
	if err != nil {
		return nil, err
	}
	s := p.tr.begin(req, stEngineResilience, root)
	rng := workload.NewRNG(j.Seed)
	var xs []int64
	var g *workload.Graph
	var want []int64
	var healthyT vlsi.Time
	if j.Alg == "sort" {
		xs = rng.Perm(j.N)
		want, healthyT = sorting.SortOTN(healthy, xs, 0)
	} else {
		g = rng.Gnp(j.N, 2.0/float64(j.N))
		graph.LoadGraph(healthy, g)
		want, healthyT = graph.ConnectedComponents(healthy, 0)
	}
	baseErr := healthy.Err()
	d := p.tr.end(s)
	p.release(req, root, j, healthy)
	if baseErr != nil {
		return nil, baseErr
	}

	m, err := p.checkout(req, root, j)
	if err != nil {
		return nil, err
	}
	defer p.release(req, root, j, m)
	s = p.tr.begin(req, stEngineResilience, root)
	rep, runErr := func() (*report.Report, error) {
		sched := fault.RandomSchedule(j.N, *j.Events, healthyT, j.Seed)
		var prog *resilience.Program
		var out func() []int64
		var err error
		if j.Alg == "sort" {
			prog, out, err = resilience.SortProgram(m, xs)
		} else {
			prog, out, err = resilience.ComponentsProgram(m, g)
		}
		if err != nil {
			return nil, err
		}
		done, runErr := resilience.Run(m, sched, prog, 0, resilience.Options{})
		correct := false
		if runErr == nil {
			got := out()
			if j.Alg == "sort" {
				correct = len(got) == len(want)
				for i := range got {
					correct = correct && got[i] == want[i]
				}
			} else {
				correct = graph.SamePartition(got, want)
			}
		}
		metric := vlsi.Metric{Area: m.Area(), Time: done}
		rep := &report.Report{
			Alg: j.Alg, Network: "otn", Model: vlsi.LogDelay{}.Name(), N: j.N, Seed: j.Seed,
			Events: *j.Events, HealthyTime: int64(healthyT),
			Time: int64(done), Area: int64(m.Area()), AT2: metric.AT2(),
			Recovered: runErr == nil && correct, Correct: &correct,
			Health: report.HealthOf(m.Health()),
			JobID:  j.ID,
		}
		if runErr != nil {
			rep.Error = runErr.Error()
			return rep, runErr
		}
		if !correct {
			rep.Error = fmt.Sprintf("supervised %s recovered but answered wrong", j.Alg)
			return rep, fmt.Errorf("server: %s", rep.Error)
		}
		return rep, nil
	}()
	p.noteEngine(j, rep, d+p.tr.end(s))
	return rep, runErr
}

// batch mirrors Executor.runBatchAll: the lanes share one machine and
// one set of tree traversals.
func (p *jobsPipeline) batch(req int64, root int32, jobs []*server.Job) ([]*report.Report, error) {
	if len(jobs) == 1 {
		rep, err := p.exec(req, root, jobs[0])
		return []*report.Report{rep}, err
	}
	j0 := jobs[0]
	m, err := p.checkout(req, root, j0)
	if err != nil {
		return nil, err
	}
	defer p.release(req, root, j0, m)
	s := p.tr.begin(req, stEngineScalar, root)
	defer p.tr.end(s)
	bb, err := core.NewBatch(m, len(jobs))
	if err != nil {
		return nil, err
	}
	problems := make([][]int64, len(jobs))
	for i, j := range jobs {
		problems[i] = workload.NewRNG(j.Seed).Perm(j.N)
	}
	_, times := sorting.SortOTNBatch(bb, problems)
	if err := bb.Err(); err != nil {
		return nil, err
	}
	reps := make([]*report.Report, len(jobs))
	for i, j := range jobs {
		metric := vlsi.Metric{Area: m.Area(), Time: times[i]}
		reps[i] = &report.Report{
			Alg: j.Alg, Network: "otn", Model: vlsi.LogDelay{}.Name(), N: j.N, Seed: j.Seed,
			Time: int64(times[i]), Area: int64(m.Area()), AT2: metric.AT2(),
			Recovered: true, JobID: j.ID,
		}
	}
	return reps, nil
}

// renderJSON is the server's response encoding: indented, with a
// trailing newline.
func renderJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

// canonicalBody is the report the result cache stores: the job id and
// every serving mark stripped.
func canonicalBody(rep *report.Report) []byte {
	c := *rep
	c.JobID = ""
	c.Replayed, c.Deduped, c.Cached, c.Coalesced = false, false, false, false
	return renderJSON(&c)
}

// relabel turns cached bytes into one reply: decode, set the job id
// and the cached mark, and encode again.
func relabel(body []byte, jobID string) (*report.Report, error) {
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	rep.JobID = jobID
	rep.Cached = true
	renderJSON(&rep) // the reply itself
	return &rep, nil
}

// sessionsPipeline replays the streamed sessions: create, then update
// batches, each journaled before and after it executes.
type sessionsPipeline struct {
	tr      *tracer
	jl      *journal.Journal // nil until the traced part starts
	cache   *mcache.Cache
	live    []*replaySession
	claimed map[string][]byte // idempotency key → stored reply
}

type replaySession struct {
	id      string
	spec    server.SessionSpec
	pinc    *packed.Incremental
	sinc    *graph.Incremental
	img     *workload.Image
	stream  *workload.Graph
	rng     *workload.RNG
	clock   vlsi.Time
	area    vlsi.Area
	batches int
}

func newSessionsPipeline(tr *tracer, maxSessions int) *sessionsPipeline {
	return &sessionsPipeline{tr: tr, cache: mcache.NewWithCapacity(maxSessions), claimed: map[string][]byte{}}
}

// create mirrors the server's createSession for healthy sessions and
// returns the batch-0 report.
func (p *sessionsPipeline) create(id string, spec server.SessionSpec) (*report.Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Faults > 0 || spec.Events > 0 || (spec.Network != "" && spec.Network != "otn") || (spec.Model != "" && spec.Model != "log") {
		return nil, fmt.Errorf("replay mirrors healthy otn/log sessions only")
	}
	j := &server.Job{Alg: "cc", N: spec.N}
	cfg := jobConfig(j)
	rs := &replaySession{id: id, spec: spec, rng: workload.NewRNG(spec.Seed)}
	var g *workload.Graph
	if spec.Grid {
		side := 1
		for side*side < spec.N {
			side++
		}
		rs.img = rs.rng.RandomImage(side, side, 0.5)
		g = rs.img.Graph()
	} else {
		g = rs.rng.Gnp(spec.N, 2.0/float64(spec.N))
		rs.stream = g.Clone()
	}
	if spec.Packed {
		eng, err := packed.EngineFor(spec.N, cfg, false)
		if err != nil {
			return nil, err
		}
		rs.pinc, rs.clock = packed.NewIncremental(eng, g, 0)
		rs.area = eng.Area()
	} else {
		m, err := p.cache.CheckoutContext(context.Background(), mcache.OTNKey(spec.N, cfg),
			func() (*core.Machine, error) { return core.New(spec.N, cfg) })
		if err != nil {
			return nil, err
		}
		rs.sinc, rs.clock = graph.NewIncremental(m, g, 0)
		if err := m.Err(); err != nil {
			return nil, err
		}
		rs.area = m.Area()
	}
	p.live = append(p.live, rs)
	return rs.report(0, rs.clock, graph.BatchStats{}), nil
}

func (rs *replaySession) labels() []int64 {
	if rs.pinc != nil {
		return rs.pinc.Labels()
	}
	return rs.sinc.Labels()
}

// report mirrors the server's sessionReport for a healthy session.
func (rs *replaySession) report(batch int, dur vlsi.Time, st graph.BatchStats) *report.Report {
	metric := vlsi.Metric{Area: rs.area, Time: dur}
	seen := map[int64]bool{}
	for _, l := range rs.labels() {
		seen[l] = true
	}
	return &report.Report{
		Alg: "cc", Network: "otn", Model: vlsi.LogDelay{}.Name(), N: rs.spec.N, Seed: rs.spec.Seed,
		Time: int64(dur), Area: int64(rs.area), AT2: metric.AT2(),
		HealthyTime: int64(rs.clock), Recovered: true,
		SessionID: rs.id, Batch: batch,
		Updates: st.Updates, Affected: st.Affected, Components: len(seen),
	}
}

// updateRequest and walRecord have the JSON shape of the server's own
// for generated batches, so journaled records have the sizes the
// server writes.
type updateRequest struct {
	Count int `json:"count,omitempty"`
}

type walRecord struct {
	T      string         `json:"t"`
	SID    string         `json:"sid,omitempty"`
	Key    string         `json:"key,omitempty"`
	Req    *updateRequest `json:"req,omitempty"`
	Status int            `json:"status,omitempty"`
	Body   []byte         `json:"body,omitempty"`
}

// update replays one POST /sessions/{id}/updates on live session si.
func (p *sessionsPipeline) update(req int64, si int, key string, body []byte) (*report.Report, error) {
	root := p.tr.begin(req, stRequest, -1)
	defer p.tr.end(root)
	rs := p.live[si]
	s := p.tr.begin(req, stDecode, root)
	var ur updateRequest
	err := json.Unmarshal(body, &ur)
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = p.tr.begin(req, stAdmit, root)
	if ur.Count <= 0 {
		err = fmt.Errorf("replay covers generated batches only")
	} else if _, dup := p.claimed[key]; dup && key != "" {
		err = fmt.Errorf("idempotency key %q reused", key)
	}
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	if err := p.journal(req, root, &walRecord{T: "update", SID: rs.id, Key: key, Req: &ur}); err != nil {
		return nil, err
	}

	s = p.tr.begin(req, stEngineIncremental, root)
	var batch []workload.EdgeUpdate
	if rs.img != nil {
		batch = rs.rng.PixelBatch(rs.img, ur.Count)
	} else {
		batch = rs.rng.UpdateBatch(rs.stream, ur.Count)
	}
	before := rs.clock
	var done vlsi.Time
	var st graph.BatchStats
	if rs.pinc != nil {
		_, done = rs.pinc.ApplyBatch(batch, before)
		st = rs.pinc.Stats()
	} else {
		_, done = rs.sinc.ApplyBatch(batch, before)
		st = rs.sinc.Stats()
	}
	p.tr.end(s)

	s = p.tr.begin(req, stEncode, root)
	rs.clock = done
	rs.batches++
	rep := rs.report(rs.batches, done-before, st)
	out := renderJSON(rep)
	p.tr.end(s)
	if key != "" {
		if err := p.journal(req, root, &walRecord{T: "result", Key: key, Status: 200, Body: out}); err != nil {
			return nil, err
		}
		s = p.tr.begin(req, stAdmit, root)
		p.claimed[key] = out
		p.tr.end(s)
	}
	return rep, nil
}

// journal mirrors journalRecord: marshal and append with fsync.
func (p *sessionsPipeline) journal(req int64, root int32, rec *walRecord) error {
	if p.jl == nil {
		return nil
	}
	s := p.tr.begin(req, stJournal, root)
	defer p.tr.end(s)
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return p.jl.Append(payload)
}
