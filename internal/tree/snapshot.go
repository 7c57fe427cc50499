package tree

import "repro/internal/vlsi"

// State is a point-in-time copy of a router's mutable execution
// state: the per-edge occupancy horizons and the combining-ascent
// sequence number. It is what the recovery supervisor's
// Machine.Snapshot captures per tree so a rollback replays the exact
// same contention — and, because the transient-corruption schedule is
// indexed by the ascent counter, the exact same transient draws — as
// the discarded attempt.
//
// Fault topology (the attached TreeFaults view, reachability, cut
// leaves) is deliberately NOT part of a State: faults merged after a
// checkpoint must survive the rollback. Restore a State *after*
// re-injecting the merged plan, never before.
//
// A State also remembers the compiled route plan (by identity) and
// the replay cursor at capture time. A rollback resumes replay only
// when the tree still holds that exact plan, as its live plan or as
// the one its run diverged from; if anything evicted it in between —
// a MergeFaults above all, which changes the fault view — the restore
// drops to pure interpretation, so a discarded attempt can never be
// replayed against a stale schedule.
type State struct {
	upFree, downFree []vlsi.Time
	ascents          uint64
	plan             *RoutePlan
	pos              int
}

// Snapshot copies the router's occupancy and ascent counter into a
// new State.
func (t *Tree) Snapshot() *State {
	s := new(State)
	t.SnapshotInto(s, make([]vlsi.Time, t.StateWords()))
	return s
}

// StateWords is the number of occupancy words one State of the router
// holds: the share of buf SnapshotInto uses.
func (t *Tree) StateWords() int { return len(t.upFree) + len(t.downFree) }

// SnapshotInto is Snapshot into s, its occupancy copies carved from the
// front of buf (at least StateWords long); it returns the rest of buf,
// so a caller checkpointing many trees allocates once. The replay
// state is synchronized first, so the arrays captured are exactly the
// interpreter's; an in-flight recording freezes here — checkpointed
// prefixes are valid plans (they start at Reset), and over repeated
// supervised runs the plan grows segment by segment.
func (t *Tree) SnapshotInto(s *State, buf []vlsi.Time) []vlsi.Time {
	t.sync()
	if t.rec != nil {
		t.freezePlan()
		if t.plan != nil {
			t.pos = len(t.plan.steps)
			t.applied = t.pos
		}
	}
	nu, nd := len(t.upFree), len(t.downFree)
	*s = State{
		upFree:   buf[:nu:nu],
		downFree: buf[nu : nu+nd : nu+nd],
		ascents:  t.ascents,
		plan:     t.plan,
		pos:      t.pos,
	}
	copy(s.upFree, t.upFree)
	copy(s.downFree, t.downFree)
	return buf[nu+nd:]
}

// Restore copies a previously captured State back into the router.
// SetFaults zeroes the ascent counter, so callers that merged a new
// plan restore the checkpoint state afterwards to keep the replay's
// transient schedule aligned with the discarded attempt's.
func (t *Tree) Restore(s *State) {
	copy(t.upFree, s.upFree)
	copy(t.downFree, s.downFree)
	t.ascents = s.ascents
	t.occDirty = false
	t.rec = nil
	t.adopt = false
	if s.plan != nil && (s.plan == t.plan || s.plan == t.rearm) {
		t.plan, t.rearm = s.plan, nil
		t.pos, t.applied = s.pos, s.pos
		return
	}
	t.plan = nil
	t.pos, t.applied = 0, 0
}
