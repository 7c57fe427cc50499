package fault

import (
	"fmt"
	"sort"

	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Event is one dynamic fault arrival: at simulated bit-time At, the
// tree edge named by Site (its child node) dies. Events model the
// mid-run link failures the static Plan cannot: the hardware was
// healthy when the computation started and broke while words were in
// flight.
type Event struct {
	// At is the simulated bit-time of the failure. Events with At in
	// (stepStart, stepEnd] strike *during* a primitive and force a
	// rollback; events with At ≤ stepStart are merged between
	// primitives at no cost beyond the degraded routing itself.
	At vlsi.Time
	// Site names the dead edge by its child node, exactly as
	// Plan.DeadEdges does.
	Site Site
}

// Schedule is a seed-reproducible, time-ordered list of fault
// arrivals. The zero-event schedule is the healthy contract: running
// a computation under it must be bit-identical — times, results,
// allocations — to running it with no supervisor at all (the same
// free-when-empty discipline the empty Plan obeys).
type Schedule struct {
	// Seed is carried into the plans built from delivered events, so
	// transient schedules stay reproducible after a merge.
	Seed uint64
	// Events, sorted by (At, Site). Validate rejects unsorted
	// schedules: delivery order is part of the deterministic trace.
	Events []Event
}

// NewSchedule returns an empty schedule with the given seed.
func NewSchedule(seed uint64) *Schedule { return &Schedule{Seed: seed} }

// Empty reports whether the schedule delivers no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Add appends an arrival; call Sort (or build in order) before use.
func (s *Schedule) Add(at vlsi.Time, site Site) *Schedule {
	s.Events = append(s.Events, Event{At: at, Site: site})
	return s
}

// Sort orders events by (At, Row, Tree, Node) — the canonical
// delivery order Validate requires.
func (s *Schedule) Sort() *Schedule {
	sort.Slice(s.Events, func(i, j int) bool {
		return eventLess(s.Events[i], s.Events[j])
	})
	return s
}

func eventLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Site.Row != b.Site.Row {
		return a.Site.Row
	}
	if a.Site.Tree != b.Site.Tree {
		return a.Site.Tree < b.Site.Tree
	}
	return a.Site.Node < b.Site.Node
}

// Validate checks every arrival against a machine with k trees per
// axis of treeK leaves each, reusing the Plan site rules: an event
// site must be a legal dead edge. It also rejects negative times and
// out-of-order events, because delivery order is part of the
// deterministic recovery trace.
func (s *Schedule) Validate(k, treeK int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if e.At < 0 {
			return &PlanError{Site: e.Site, Reason: fmt.Sprintf("event %d arrives at negative time %d", i, int64(e.At))}
		}
		if i > 0 && eventLess(e, s.Events[i-1]) {
			return &PlanError{Site: e.Site, Reason: fmt.Sprintf("event %d out of order (schedules must be sorted by arrival)", i)}
		}
		p := Plan{DeadEdges: []Site{e.Site}}
		if err := p.Validate(k, treeK); err != nil {
			return err
		}
	}
	return nil
}

// RandomSchedule scatters n distinct dead-edge arrivals uniformly
// over the 2k trees of a (k×k)-OTN and over simulated times in
// [1, horizon], derived entirely from the seed. The same
// (k, n, horizon, seed) quadruple always yields the same schedule.
// Like Random, n is clamped to the number of distinct edges.
func RandomSchedule(k, n int, horizon vlsi.Time, seed uint64) *Schedule {
	if horizon < 1 {
		horizon = 1
	}
	sites := Random(k, n, seed).DeadEdges
	rng := workload.NewRNG(mix(seed ^ 0xD1B54A32D192ED03))
	s := NewSchedule(seed)
	for _, site := range sites {
		s.Add(1+vlsi.Time(rng.Intn(int(horizon))), site)
	}
	return s.Sort()
}
