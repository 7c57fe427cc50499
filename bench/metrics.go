package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/server"
)

// benchSpec is BENCHMARK.json at the repository root: the command,
// the workloads, and every end-to-end and per-layer metric with its
// unit, direction and (end-to-end only) regression bound. It is the
// single source of metric names and units; this program computes
// values by name.
type benchSpec struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// layerMetric names the end-to-end metrics a per-layer metric should
// move and the workloads it should move them on — written down before
// any measurement, so a later change can be held to it.
type layerMetric struct {
	name      string
	moves     []string
	workloads []string
}

var (
	onEngine   = []string{"jobs_engine"}
	onZipf     = []string{"jobs_zipf"}
	onBulk     = []string{"jobs_bulk"}
	onSessions = []string{"sessions_durable"}
)

// layerMetrics covers every per_layer name in BENCHMARK.json (the
// schema test holds the two together).
var layerMetrics = func() []layerMetric {
	ls := []layerMetric{
		{"rescache.hit_rate", []string{"goodput_ops_s", "latency_p50_ms"}, onZipf},
		{"rescache.stores_per_op", []string{"server_cpu_us_per_op"}, onEngine},
		{"mcache.hit_rate", []string{"latency_p99_ms"}, []string{"jobs_engine", "jobs_bulk"}},
		{"mcache.waits_per_op", []string{"latency_p99_ms"}, []string{"jobs_engine", "jobs_bulk"}},
		{"tree.plan_cache.hit_rate", []string{"goodput_ops_s", "rss_mb"}, onBulk},
		{"server.pool.lane_avg_occupancy", []string{"goodput_ops_s"}, onBulk},
		{"server.pool.shed_per_op", []string{"fail_frac"}, workloadNames},
		{"packed.job_share", []string{"goodput_ops_s"}, onEngine},
		{"journal.records_per_fsync", []string{"latency_p50_ms", "server_cpu_us_per_op"}, onSessions},
		{"journal.bytes_per_op", []string{"latency_p50_ms", "server_cpu_us_per_op"}, onSessions},
		{"journal.records_replayed", []string{"setup_s"}, onSessions},
		{"journal.recovery_ms", []string{"setup_s"}, onSessions},
		{"server.transport_queue_ms", []string{"latency_p50_ms"}, onBulk},
		{"trace.overhead_frac", []string{"latency_p50_ms"}, onZipf},
	}
	stageMoves := map[stage]layerMetric{
		stDecode:            {moves: []string{"latency_p50_ms"}, workloads: onZipf},
		stAdmit:             {moves: []string{"latency_p50_ms"}, workloads: onZipf},
		stRescache:          {moves: []string{"latency_p50_ms"}, workloads: onZipf},
		stMcache:            {moves: []string{"latency_p99_ms"}, workloads: []string{"jobs_engine", "jobs_bulk"}},
		stEngineScalar:      {moves: []string{"goodput_ops_s"}, workloads: []string{"jobs_engine", "jobs_bulk"}},
		stEnginePacked:      {moves: []string{"goodput_ops_s"}, workloads: onEngine},
		stEngineResilience:  {moves: []string{"goodput_ops_s"}, workloads: onEngine},
		stEngineIncremental: {moves: []string{"latency_p50_ms"}, workloads: onSessions},
		stJournal:           {moves: []string{"latency_p50_ms", "server_cpu_us_per_op"}, workloads: onSessions},
		stEncode:            {moves: []string{"latency_p50_ms"}, workloads: onZipf},
		stRequest:           {moves: []string{"latency_p50_ms"}, workloads: workloadNames},
	}
	for st := stage(0); st < numStages; st++ {
		m := stageMoves[st]
		for _, suffix := range []string{".self_p50_us", ".share"} {
			ls = append(ls, layerMetric{stageMetricName(st) + suffix, m.moves, m.workloads})
		}
	}
	for _, c := range engineClasses {
		ls = append(ls, layerMetric{"engine.host_ns_per_bit_time." + c.label, []string{"goodput_ops_s"}, onEngine})
	}
	return ls
}()

// stageMetricName is the metric prefix of a stage; the request root's
// own self time is the time no stage accounts for.
func stageMetricName(st stage) string {
	if st == stRequest {
		return "unattributed"
	}
	return stageNames[st]
}

// metricsDelta computes the per-layer metrics the server's /metrics
// counters give over the measured window: a before/after pair of
// snapshots, the window's successful and attempted operations.
func metricsDelta(a, b *server.Snapshot, ok, attempted int64) map[string]float64 {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out := map[string]float64{}
	if a.ResultCache != nil && b.ResultCache != nil {
		ra, rb := a.ResultCache, b.ResultCache
		served := float64(rb.Hits - ra.Hits + rb.Coalesced - ra.Coalesced)
		out["rescache.hit_rate"] = ratio(served, served+float64(rb.Misses-ra.Misses))
		out["rescache.stores_per_op"] = ratio(float64(rb.Stores-ra.Stores), float64(ok))
	}
	mh, mm := float64(b.MCache.Hits-a.MCache.Hits), float64(b.MCache.Misses-a.MCache.Misses)
	out["mcache.hit_rate"] = ratio(mh, mh+mm)
	out["mcache.waits_per_op"] = ratio(float64(b.MCache.Waits-a.MCache.Waits), float64(ok))
	ph, pm := float64(b.PlanCache.Hits-a.PlanCache.Hits), float64(b.PlanCache.Misses-a.PlanCache.Misses)
	out["tree.plan_cache.hit_rate"] = ratio(ph, ph+pm)
	out["server.pool.lane_avg_occupancy"] = ratio(float64(b.LaneJobs-a.LaneJobs), float64(b.LaneGroups-a.LaneGroups))
	shed := func(s *server.Snapshot) int64 {
		return s.ShedQueueFull + s.ShedRateLimited + s.RejectedBreaker + s.RejectedDrain + s.ShedSessionsFull
	}
	out["server.pool.shed_per_op"] = ratio(float64(shed(b)-shed(a)), float64(attempted))
	out["packed.job_share"] = ratio(float64(b.PackedJobs-a.PackedJobs), float64(b.Completed-a.Completed))
	if a.Durability != nil && b.Durability != nil {
		da, db := a.Durability, b.Durability
		out["journal.records_per_fsync"] = ratio(float64(db.JournalRecords-da.JournalRecords), float64(db.FsyncBatches-da.FsyncBatches))
		out["journal.bytes_per_op"] = ratio(float64(db.JournalBytes-da.JournalBytes), float64(ok))
		out["journal.records_replayed"] = float64(db.RecordsReplayed)
		out["journal.recovery_ms"] = float64(db.RecoveryMS)
	}
	return out
}
