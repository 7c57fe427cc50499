package server

import (
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/mcache"
	"repro/internal/rescache"
	"repro/internal/tree"
)

// Metrics is the server's observability surface, exported as JSON at
// /metrics. Everything the degradation ladder does is counted here:
// what was admitted, what was shed and why, how full the queue is,
// how often the breaker fired, how well the machine cache and the
// shared route-plan cache are amortizing work.
type Metrics struct {
	mu    sync.Mutex
	start time.Time

	accepted  int64
	completed int64
	failed    int64
	panics    int64
	giveUps   int64

	shedQueueFull   int64
	shedRateLimited int64
	rejectedBreaker int64
	rejectedDrain   int64
	invalid         int64

	deadlineBeforeStart int64 // expired while queued; never held a machine
	deadlineMidRun      int64 // expired while running; result flushed late

	queueDepth int64
	inflight   int64

	packedJobs  int64 // jobs served by the machine-free packed engine
	packedBits  int64 // adjacency-row bits those jobs actually used
	packedSlots int64 // uint64 bit slots those rows occupied

	sessionsCreated  int64 // streamed sessions checked out
	sessionsExpired  int64 // sessions evicted by the TTL sweeper
	sessionsClosed   int64 // sessions closed by DELETE or drain
	sessionBatches   int64 // update batches applied across all sessions
	sessionUpdates   int64 // edge updates those batches carried
	shedSessionsFull int64 // session creations shed at the capacity gate

	journalErrors           int64 // WAL appends or compactions that failed
	dedupHits               int64 // keyed retries answered from stored bytes
	dedupSynthesized        int64 // dedup answers rebuilt by recovery replay
	recordsReplayed         int64 // WAL records re-executed at the last recovery
	recordsSkipped          int64 // damaged/out-of-context records skipped
	sessionsRecovered       int64 // sessions live after the last recovery
	sessionsDroppedRecovery int64 // snapshot sessions dropped at the capacity gate
	recoveryMS              int64 // wall-clock milliseconds of the last recovery
}

// NewMetrics starts the clock.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

func (m *Metrics) add(f func(*Metrics)) {
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
}

// Snapshot is the /metrics JSON document.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Accepted   int64   `json:"accepted"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	Panics     int64   `json:"panics"`
	GiveUps    int64   `json:"give_ups"`
	Throughput float64 `json:"throughput_jobs_per_sec"`

	ShedQueueFull   int64 `json:"shed_queue_full"`
	ShedRateLimited int64 `json:"shed_rate_limited"`
	RejectedBreaker int64 `json:"rejected_breaker"`
	RejectedDrain   int64 `json:"rejected_draining"`
	Invalid         int64 `json:"invalid"`

	DeadlineBeforeStart int64 `json:"deadline_before_start"`
	DeadlineMidRun      int64 `json:"deadline_mid_run"`

	QueueDepth int64 `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Inflight   int64 `json:"inflight"`
	Workers    int   `json:"workers"`

	BreakerOpenClasses int   `json:"breaker_open_classes"`
	BreakerTrips       int64 `json:"breaker_trips"`

	// LaneGroups always reads 0 (every job runs alone); the bench module reads it.
	LaneGroups int64 `json:"lane_groups"`
	// LaneJobs always reads 0 (every job runs alone); the bench module reads it.
	LaneJobs int64 `json:"lane_jobs"`

	// PackedJobs counts jobs served by the machine-free packed
	// engine; PackedLaneOccup is the fraction of uint64 bit slots
	// those jobs' packed adjacency rows actually used (N bits in
	// ⌈N/64⌉ words — 1.0 when every served N is a multiple of 64).
	PackedJobs      int64   `json:"packed_jobs"`
	PackedLaneOccup float64 `json:"packed_lane_occupancy"`

	// Streamed-session gauges and counters: how many sessions are
	// resident right now, lifecycle totals, and the update volume the
	// incremental engines have absorbed.
	SessionsActive   int   `json:"sessions_active"`
	SessionsCreated  int64 `json:"sessions_created"`
	SessionsExpired  int64 `json:"sessions_expired"`
	SessionsClosed   int64 `json:"sessions_closed"`
	SessionBatches   int64 `json:"session_batches"`
	SessionUpdates   int64 `json:"session_updates"`
	ShedSessionsFull int64 `json:"shed_sessions_full"`

	// ResultCache is present only when the compute-once/serve-many
	// result cache is enabled: how often identical specs were answered
	// from stored bytes or coalesced onto an in-flight leader, and what
	// the byte-budgeted LRU holds.
	ResultCache *ResultCacheSnapshot `json:"result_cache,omitempty"`

	// Durability is present only when the server journals (-journal):
	// WAL volume and fsync batching, what the last recovery replayed
	// and how long it took, and how often idempotent retries were
	// answered without re-executing.
	Durability *DurabilitySnapshot `json:"durability,omitempty"`

	MCache struct {
		Hits    int     `json:"hits"`
		Misses  int     `json:"misses"`
		Waits   int     `json:"waits"`
		Returns int     `json:"returns"`
		Drops   int     `json:"drops"`
		HitRate float64 `json:"hit_rate"`
	} `json:"mcache"`

	PlanCache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		Size    int     `json:"size"`
		HitRate float64 `json:"hit_rate"`
	} `json:"plan_cache"`
}

// ResultCacheSnapshot is the /metrics result-cache block (cache-enabled
// servers only). HitRate counts stored hits and coalesced followers
// against all lookups — both kinds were answered without executing.
type ResultCacheSnapshot struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	Stores    int64   `json:"stores"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Budget    int64   `json:"budget_bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// resultCache converts the cache's own stats into the /metrics block.
func resultCacheSnapshot(s rescache.Stats) *ResultCacheSnapshot {
	rc := &ResultCacheSnapshot{
		Hits: s.Hits, Misses: s.Misses, Coalesced: s.Coalesced,
		Stores: s.Stores, Evictions: s.Evictions,
		Entries: s.Entries, Bytes: s.Bytes, Budget: s.Budget,
	}
	if total := s.Hits + s.Coalesced + s.Misses; total > 0 {
		rc.HitRate = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return rc
}

// DurabilitySnapshot is the /metrics durability block (journaling
// servers only): journal volume, fsync batching, and what the last
// crash recovery replayed.
type DurabilitySnapshot struct {
	JournalSegment  int64 `json:"journal_segment"`
	JournalSnapshot int64 `json:"journal_snapshot"`
	JournalRecords  int64 `json:"journal_records"`
	JournalBytes    int64 `json:"journal_bytes"`
	FsyncBatches    int64 `json:"fsync_batches"`
	Snapshots       int64 `json:"snapshots"`
	TailRecords     int64 `json:"tail_records"`
	TornBytes       int64 `json:"torn_bytes_dropped"`
	JournalErrors   int64 `json:"journal_errors"`

	DedupHits        int64 `json:"dedup_hits"`
	DedupSynthesized int64 `json:"dedup_synthesized"`

	RecordsReplayed   int64 `json:"records_replayed"`
	RecordsSkipped    int64 `json:"records_skipped,omitempty"`
	SessionsRecovered int64 `json:"sessions_recovered"`
	SessionsDropped   int64 `json:"sessions_dropped_recovery,omitempty"`
	RecoveryMS        int64 `json:"recovery_ms"`
}

// durability merges the journal's own stats with the server-side
// durability counters.
func (m *Metrics) durability(js journal.Stats) *DurabilitySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &DurabilitySnapshot{
		JournalSegment: int64(js.Segment), JournalSnapshot: int64(js.Snapshot),
		JournalRecords: js.Records, JournalBytes: js.Bytes,
		FsyncBatches: js.Fsyncs, Snapshots: js.Snapshots,
		TailRecords: js.TailRecords, TornBytes: js.TornBytes,
		JournalErrors:    m.journalErrors,
		DedupHits:        m.dedupHits,
		DedupSynthesized: m.dedupSynthesized,
		RecordsReplayed:  m.recordsReplayed, RecordsSkipped: m.recordsSkipped,
		SessionsRecovered: m.sessionsRecovered, SessionsDropped: m.sessionsDroppedRecovery,
		RecoveryMS: m.recoveryMS,
	}
}

// snapshot assembles the document from the live counters plus the
// cache and breaker state.
func (m *Metrics) snapshot(queueCap, workers int, cache *mcache.Cache, br *Breaker, sessionsActive int) Snapshot {
	m.mu.Lock()
	s := Snapshot{
		UptimeSec: time.Since(m.start).Seconds(),
		Accepted:  m.accepted, Completed: m.completed, Failed: m.failed,
		Panics: m.panics, GiveUps: m.giveUps,
		ShedQueueFull: m.shedQueueFull, ShedRateLimited: m.shedRateLimited,
		RejectedBreaker: m.rejectedBreaker, RejectedDrain: m.rejectedDrain,
		Invalid:             m.invalid,
		DeadlineBeforeStart: m.deadlineBeforeStart, DeadlineMidRun: m.deadlineMidRun,
		QueueDepth: m.queueDepth, QueueCap: queueCap,
		Inflight: m.inflight, Workers: workers,
		PackedJobs:      m.packedJobs,
		SessionsActive:  sessionsActive,
		SessionsCreated: m.sessionsCreated, SessionsExpired: m.sessionsExpired,
		SessionsClosed: m.sessionsClosed, SessionBatches: m.sessionBatches,
		SessionUpdates: m.sessionUpdates, ShedSessionsFull: m.shedSessionsFull,
	}
	if m.packedSlots > 0 {
		s.PackedLaneOccup = float64(m.packedBits) / float64(m.packedSlots)
	}
	m.mu.Unlock()
	if s.UptimeSec > 0 {
		s.Throughput = float64(s.Completed) / s.UptimeSec
	}
	cs := cache.Stats()
	s.MCache.Hits, s.MCache.Misses, s.MCache.Waits = cs.Hits, cs.Misses, cs.Waits
	s.MCache.Returns, s.MCache.Drops = cs.Returns, cs.Drops
	if cs.Hits+cs.Misses > 0 {
		s.MCache.HitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	pc := tree.SharedPlanCache()
	ps := pc.Stats()
	s.PlanCache.Hits, s.PlanCache.Misses, s.PlanCache.Size = ps.Hits, ps.Misses, pc.Size()
	if ps.Hits+ps.Misses > 0 {
		s.PlanCache.HitRate = float64(ps.Hits) / float64(ps.Hits+ps.Misses)
	}
	s.BreakerOpenClasses, s.BreakerTrips = br.OpenClasses()
	return s
}
