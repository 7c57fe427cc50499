package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// stage is one layer boundary of the server's request path, in the
// order a request crosses them.
type stage uint8

const (
	stRequest stage = iota // the whole request; its self time is unattributed
	stDecode
	stAdmit
	stRescache
	stMcache
	stEngineScalar
	stEnginePacked
	stEngineResilience
	stEngineIncremental
	stJournal
	stEncode
	numStages
)

var stageNames = [numStages]string{
	"request",
	"server.decode",
	"server.admit",
	"rescache.lookup",
	"mcache.checkout",
	"engine.scalar",
	"engine.packed",
	"engine.resilience",
	"engine.incremental",
	"journal.append",
	"report.encode",
}

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span (-1 for the request itself).
type span struct {
	req        int64
	stage      stage
	parent     int32
	start, end time.Duration // since the tracer's origin
}

// tracer records spans in memory. When off, begin and end cost a
// branch, so the same replay code runs with spans on or off.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(req int64, st stage, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{req: req, stage: st, parent: parent, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration (0 when tracing is off).
func (t *tracer) end(i int32) time.Duration {
	if i < 0 {
		return 0
	}
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// stageStats turns spans into per-stage self times. A span's self time
// is its duration minus the time its children cover; a request's own
// self time is what no stage accounts for. Per stage it reports the
// median over requests of the stage's summed self time (µs) and the
// stage's share of all request time; it also returns the median
// request duration.
func stageStats(spans []span) (map[string]float64, time.Duration) {
	self := make([]time.Duration, len(spans))
	root := make([]int32, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
			root[i] = root[s.parent]
		} else {
			root[i] = int32(i)
		}
	}
	// Per request (keyed by its root span), per stage, summed self time.
	perReq := map[int32]*[numStages]time.Duration{}
	var total time.Duration
	var reqDur []time.Duration
	for i, s := range spans {
		r := root[i]
		if perReq[r] == nil {
			perReq[r] = new([numStages]time.Duration)
		}
		perReq[r][s.stage] += self[i]
		if s.parent < 0 {
			total += s.end - s.start
			reqDur = append(reqDur, s.end-s.start)
		}
	}
	out := map[string]float64{}
	for st := stage(0); st < numStages; st++ {
		var xs []time.Duration
		var sum time.Duration
		for _, pr := range perReq {
			if d := pr[st]; d != 0 || st == stRequest {
				xs = append(xs, d)
				sum += d
			}
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		name := stageMetricName(st)
		out[name+".self_p50_us"] = float64(percentile(xs, 50)) / 1e3
		if total > 0 {
			out[name+".share"] = float64(sum) / float64(total)
		}
	}
	sort.Slice(reqDur, func(i, j int) bool { return reqDur[i] < reqDur[j] })
	return out, percentile(reqDur, 50)
}

// writeTrace writes the spans as JSON: one object per span with the
// request id, stage, start and end (ns since the replay began) and the
// index of the parent span.
func writeTrace(path, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type jspan struct {
		Req     int64  `json:"req"`
		Stage   string `json:"stage"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
	}
	js := make([]jspan, len(spans))
	for i, s := range spans {
		js[i] = jspan{s.req, stageNames[s.stage], int64(s.start), int64(s.end), s.parent}
	}
	err = json.NewEncoder(w).Encode(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Spans    []jspan `json:"spans"`
	}{workload, seed, js})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
