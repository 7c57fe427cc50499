// Package server turns the simulation engines, the machine cache and the
// recovery supervisor into a long-running simulation service with a
// front door that can say "no" safely. Clients POST jobs (workload,
// network family, size, fault schedule, seed, deadline) to /jobs and
// receive the same JSON report otsim -json prints; overload is
// handled by explicit, layered degradation rather than collapse:
//
//	queue   — a bounded admission queue sheds with 429 + Retry-After
//	fairness — per-client token buckets keep one client from
//	           starving the pool (429 for the offender only)
//	breaker — a per-(alg, network, N) circuit breaker turns repeated
//	           GiveUpError/panic job classes into fast 503s that
//	           half-open on a backoff schedule
//	pool    — a bounded worker pool runs each job alone on one
//	           worker against a machine checked out of its per-shape
//	           mcache shard, and honors per-job deadlines via context
//	           (a timed-out job's machine is returned to the cache, or
//	           dropped by the cache if mid-mutation)
//	drain   — SIGTERM stops admission, finishes the queued and
//	           in-flight jobs (supervised jobs keep their
//	           checkpoint/rollback protection), flushes results and
//	           joins every worker
//
// Simulated results are bit-identical to running the same job through
// otsim directly — same seed, same schedule, same report — including
// under concurrent submission and machine-cache reuse (the determinism
// tests in this package pin both).
package server

import (
	"fmt"
	"time"

	"repro/internal/rescache"
	"repro/internal/vlsi"
)

// MaxN bounds accepted problem sizes: an (N×N)-OTN holds 2N trees of
// N leaves and N² base processors, so admission itself must refuse
// sizes that would let one job exhaust the host.
const MaxN = 256

// PackedMaxN is the size bound for packed Boolean jobs. The packed
// engine holds no machine at all — a few fused duration tables plus
// O(N²/64) words of adjacency per run — so admission can afford four
// times the scalar bound.
const PackedMaxN = 1024

// Job is one simulation request, the POST /jobs body. The zero value
// of every optional field means its otsim default.
type Job struct {
	// ID is echoed back as job_id in the report (optional).
	ID string `json:"id,omitempty"`
	// Client names the submitter for per-client fairness; empty IDs
	// share one anonymous bucket.
	Client string `json:"client,omitempty"`

	// Alg is the workload: "sort" (SORT-OTN) or "cc" (connected
	// components).
	Alg string `json:"alg"`
	// Network is the family: "otn" (default) or "scaled".
	Network string `json:"network,omitempty"`
	// Model is the wire-delay model: "log" (default), "const" or
	// "linear".
	Model string `json:"model,omitempty"`
	// N is the problem size (power of two, ≤ MaxN; packed Boolean
	// jobs may go up to PackedMaxN).
	N int `json:"n"`
	// Seed drives the workload generator, exactly as otsim -seed.
	Seed uint64 `json:"seed"`

	// Packed requests the bit-packed Boolean engine for a healthy
	// "cc" job: no machine checkout, simulated results byte-identical
	// to the scalar path. Fault and supervised modes are traversal-
	// time effects the fused schedules cannot express, so combining
	// them with Packed is a validation error rather than a silent
	// fallback.
	Packed bool `json:"packed,omitempty"`

	// Faults, when positive, injects that many random dead tree edges
	// before the run (otsim -faults).
	Faults int `json:"faults,omitempty"`
	// Events, when present, runs the job under the recovery
	// supervisor with that many mid-run dead-edge arrivals (otsim
	// -schedule). Omitted means a plain run; 0 means supervised but
	// fault-free. Mutually exclusive with Faults, as in otsim.
	Events *int `json:"events,omitempty"`

	// DeadlineMS bounds the job's total latency (queue wait included)
	// in milliseconds; 0 means no deadline. Expired jobs answer 504
	// and never hold a machine.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// IdemKey is the client's idempotency key (the Idempotency-Key
	// header takes precedence). A retried submission with the same key
	// answers with the original response bytes instead of re-executing.
	IdemKey string `json:"idem_key,omitempty"`
}

// Supervised reports whether the job runs under the recovery
// supervisor.
func (j *Job) Supervised() bool { return j.Events != nil }

// Deadline returns the job's latency bound, or 0.
func (j *Job) Deadline() time.Duration {
	return time.Duration(j.DeadlineMS) * time.Millisecond
}

// Validate rejects malformed jobs before they cost anything. The
// rules mirror otsim's flag validation plus the service's size bound.
func (j *Job) Validate() error {
	switch j.Alg {
	case "sort", "cc":
	default:
		return fmt.Errorf("unknown alg %q (sort | cc)", j.Alg)
	}
	switch j.Network {
	case "", "otn", "scaled":
	default:
		return fmt.Errorf("unknown network %q (otn | scaled)", j.Network)
	}
	switch j.Model {
	case "", "log", "const", "linear":
	default:
		return fmt.Errorf("unknown model %q (log | const | linear)", j.Model)
	}
	if j.Packed {
		if j.Alg != "cc" {
			return fmt.Errorf("packed execution covers the Boolean workload family only (alg \"cc\", got %q)", j.Alg)
		}
		if j.Faults > 0 || j.Events != nil {
			return fmt.Errorf("packed execution is for healthy plain runs; fault and supervised modes take the scalar path")
		}
	}
	limit := MaxN
	if j.Packed {
		limit = PackedMaxN
	}
	if j.N < 2 || j.N > limit || j.N&(j.N-1) != 0 {
		return fmt.Errorf("n = %d must be a power of two in [2, %d]", j.N, limit)
	}
	if j.Faults < 0 {
		return fmt.Errorf("faults = %d must be non-negative", j.Faults)
	}
	if j.Events != nil && *j.Events < 0 {
		return fmt.Errorf("events = %d must be non-negative", *j.Events)
	}
	if j.Events != nil && j.Faults > 0 {
		return fmt.Errorf("events (dynamic arrivals) and faults (static plan) are separate modes; pick one")
	}
	if j.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms = %d must be non-negative", j.DeadlineMS)
	}
	return nil
}

// network returns the family with the default applied.
func (j *Job) network() string {
	if j.Network == "" {
		return "otn"
	}
	return j.Network
}

// model resolves the wire-delay model with the default applied.
func (j *Job) model() vlsi.DelayModel {
	switch j.Model {
	case "const":
		return vlsi.ConstantDelay{}
	case "linear":
		return vlsi.LinearDelay{}
	default:
		return vlsi.LogDelay{}
	}
}

// Class is the circuit-breaker key: jobs of one class
// are interchangeable resource-wise — same machine shape, same
// workload family, same supervision mode.
func (j *Job) Class() string {
	mode := "plain"
	if j.Supervised() {
		mode = "supervised"
	} else if j.Faults > 0 {
		mode = "faulty"
	} else if j.usesPacked() {
		mode = "packed"
	}
	return fmt.Sprintf("%s/%s/%s/%d/%s", j.Alg, j.network(), j.modelName(), j.N, mode)
}

// usesPacked reports whether the job runs on the machine-free packed
// engine. Validation already pins the conjunction, but the executor
// and metrics re-check it so a hand-built Job degrades to the scalar
// path instead of mis-running.
func (j *Job) usesPacked() bool {
	return j.Packed && j.Alg == "cc" && j.Faults == 0 && !j.Supervised()
}

// modelName is the resolved model's report name key ("log", "const",
// "linear") — kept distinct from the DelayModel.Name() used in
// reports, which is the long form.
func (j *Job) modelName() string {
	if j.Model == "" {
		return "log"
	}
	return j.Model
}

// Batchable reports whether the job is a plain sort on native OTN routers; the bench module reads it.
func (j *Job) Batchable() bool {
	return j.Alg == "sort" && j.network() == "otn" && j.Faults == 0 && !j.Supervised()
}

// jobFingerprint is the canonical, result-determining projection of a
// Job: exactly the fields that change the simulated report, with
// defaults applied so spelled-out and defaulted specs share a key.
// Transport fields — ID, Client, IdemKey, DeadlineMS — are absent by
// construction, which is the whole point: any client submitting the
// same simulation gets the same fingerprint.
type jobFingerprint struct {
	Alg        string `json:"alg"`
	Network    string `json:"network"`
	Model      string `json:"model"`
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`
	Packed     bool   `json:"packed"`
	Faults     int    `json:"faults"`
	Supervised bool   `json:"supervised"`
	Events     int    `json:"events"`
}

// Fingerprint returns the job's result-cache key: a hash of the
// canonical-JSON projection above. Packed is included even though the
// packed engine's reports are pinned byte-identical to the scalar
// path's — the key errs on the side of never sharing bytes across
// execution engines.
func (j *Job) Fingerprint() string {
	fp := jobFingerprint{
		Alg: j.Alg, Network: j.network(), Model: j.modelName(),
		N: j.N, Seed: j.Seed, Packed: j.usesPacked(), Faults: j.Faults,
	}
	if j.Supervised() {
		fp.Supervised, fp.Events = true, *j.Events
	}
	return rescache.Key(fp)
}
