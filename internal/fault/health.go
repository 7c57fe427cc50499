package fault

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/vlsi"
)

// Health accumulates what one machine observed while executing under
// a fault plan: the static faults it was configured with, every
// transient it caught, every retry and reroute it performed, and the
// bit-times those recoveries added. One Health is shared by a
// machine's routers and primitives; the simulator is single-threaded
// at this layer, so plain counters suffice.
type Health struct {
	// Static configuration, filled at injection time.
	DeadEdges int
	DeadIPs   int
	StuckBPs  int

	// Dynamic observations.
	Transients int // corrupted ascents caught by the parity check
	Retries    int // re-ascents performed after a NACK
	Reroutes   int // words detoured through orthogonal trees

	// RetryLatency and RerouteLatency are the bit-times added by
	// recovery, beyond what the healthy machine would have charged.
	RetryLatency   vlsi.Time
	RerouteLatency vlsi.Time

	// Dynamic-fault recovery, maintained by the checkpoint/rollback
	// supervisor (internal/resilience). Zero on purely static runs.
	Arrivals    int // mid-run fault events merged into the live plan
	Checkpoints int // machine snapshots taken at primitive boundaries
	Rollbacks   int // restores to the last consistent checkpoint
	Healed      int // failures recorded by attempts later rolled back

	// CheckpointOverhead is the bit-times spent writing snapshots;
	// RollbackLatency is discarded work + restore copies + backoff.
	CheckpointOverhead vlsi.Time
	RollbackLatency    vlsi.Time

	errs []error
}

// Checkpoint notes one snapshot and its bit-time cost.
func (h *Health) Checkpoint(cost vlsi.Time) {
	if h == nil {
		return
	}
	h.Checkpoints++
	h.CheckpointOverhead += cost
}

// Arrive notes n mid-run fault arrivals merged into the live plan.
func (h *Health) Arrive(n int) {
	if h != nil {
		h.Arrivals += n
	}
}

// Rollback notes one restore to the last checkpoint and the bit-times
// it added (discarded work + restore copy + backoff), plus how many
// recorded failures the rollback healed.
func (h *Health) Rollback(added vlsi.Time, healed int) {
	if h == nil {
		return
	}
	h.Rollbacks++
	h.RollbackLatency += added
	h.Healed += healed
}

// CutFailures truncates the recorded failures back to the first keep
// entries — the supervisor calls it after a rollback, because errors
// observed by a discarded attempt were never committed — and returns
// how many were dropped.
func (h *Health) CutFailures(keep int) int {
	if h == nil || keep < 0 || keep >= len(h.errs) {
		return 0
	}
	dropped := len(h.errs) - keep
	h.errs = h.errs[:keep]
	return dropped
}

// Reroute notes one word detoured through orthogonal trees and the
// bit-times the detour added.
func (h *Health) Reroute(added vlsi.Time) {
	if h == nil {
		return
	}
	h.Reroutes++
	if added > 0 {
		h.RerouteLatency += added
	}
}

// Fail records an unrecoverable fault outcome (e.g. a retry budget
// exhausted, or an operand isolated beyond repair).
func (h *Health) Fail(err error) {
	if h == nil || err == nil {
		return
	}
	h.errs = append(h.errs, err)
}

// Err returns the recorded unrecoverable outcomes joined into one
// error, or nil if every operation either succeeded or was recovered.
func (h *Health) Err() error {
	if h == nil || len(h.errs) == 0 {
		return nil
	}
	return errors.Join(h.errs...)
}

// Failures returns the number of unrecoverable outcomes recorded.
func (h *Health) Failures() int {
	if h == nil {
		return 0
	}
	return len(h.errs)
}

// AddedLatency is the total recovery cost in bit-times.
func (h *Health) AddedLatency() vlsi.Time {
	if h == nil {
		return 0
	}
	return h.RetryLatency + h.RerouteLatency + h.CheckpointOverhead + h.RollbackLatency
}

// Report renders the health counters as a human-readable block, the
// form cmd/otsim prints after a faulty run.
func (h *Health) Report() string {
	if h == nil {
		return "health: no fault plan injected\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "health: %d dead edge(s), %d dead IP(s), %d stuck BP(s)\n",
		h.DeadEdges, h.DeadIPs, h.StuckBPs)
	fmt.Fprintf(&b, "  transients caught: %d (retries: %d, +%d bit-times)\n",
		h.Transients, h.Retries, int64(h.RetryLatency))
	fmt.Fprintf(&b, "  rerouted words:    %d (+%d bit-times)\n",
		h.Reroutes, int64(h.RerouteLatency))
	if h.Arrivals > 0 || h.Checkpoints > 0 || h.Rollbacks > 0 {
		fmt.Fprintf(&b, "  mid-run arrivals:  %d (merged into the live plan)\n", h.Arrivals)
		fmt.Fprintf(&b, "  checkpoints:       %d (+%d bit-times overhead)\n",
			h.Checkpoints, int64(h.CheckpointOverhead))
		fmt.Fprintf(&b, "  rollbacks:         %d (+%d bit-times replayed, %d failure(s) healed)\n",
			h.Rollbacks, int64(h.RollbackLatency), h.Healed)
	}
	if n := len(h.errs); n > 0 {
		fmt.Fprintf(&b, "  UNRECOVERED: %d failure(s); first: %v\n", n, h.errs[0])
	} else {
		b.WriteString("  all operations completed or recovered\n")
	}
	return b.String()
}

// PlanError reports a fault plan that does not fit the machine it was
// injected into.
type PlanError struct {
	Site   Site
	Reason string
}

func (e *PlanError) Error() string {
	if e.Reason != "" && (e.Site != Site{}) {
		return fmt.Sprintf("fault: invalid plan at %s: %s", e.Site, e.Reason)
	}
	return "fault: invalid plan: " + e.Reason
}

// UnreachableError reports an operation that needed a subtree cut off
// by a dead edge or dead IP and could not be rerouted.
type UnreachableError struct {
	Site Site   // the tree whose cut blocked the operation (Node may be 0 when unknown)
	Op   string // the primitive or router operation that failed
	Leaf int    // the unreachable leaf, -1 when not leaf-specific
}

func (e *UnreachableError) Error() string {
	if e.Leaf >= 0 {
		return fmt.Sprintf("fault: %s: leaf %d of %s unreachable", e.Op, e.Leaf, treeName(e.Site))
	}
	return fmt.Sprintf("fault: %s: %s unreachable", e.Op, treeName(e.Site))
}

func treeName(s Site) string {
	axis := "col"
	if s.Row {
		axis = "row"
	}
	return fmt.Sprintf("%s tree %d", axis, s.Tree)
}

// StormError reports a combining ascent that exhausted its retry
// budget under transient corruption.
type StormError struct {
	Op      string
	Retries int
}

func (e *StormError) Error() string {
	return fmt.Sprintf("fault: %s: parity retry budget (%d) exhausted", e.Op, e.Retries)
}
