package core

import "repro/internal/fault"

// This file implements machine recycling, the core of the
// internal/mcache checkout/return protocol: construction (layout
// measurement, router building, delay tables) is the expensive part
// of a Machine, while everything a workload mutates — registers,
// routing occupancy, fault views, the sticky error — is cheap to
// scrub in place. A recycled machine is observationally identical to
// a freshly constructed one (the cache's determinism tests pin this),
// so sweeps can check machines out per cell instead of rebuilding.

// ClearFaults detaches the machine's fault plan: every router drops
// its fault view (restoring the exact healthy code path, transient
// schedules included) and the plan, health ledger and stuck-BP set
// are discarded. A machine that never had a plan is untouched.
func (m *Machine) ClearFaults() {
	m.dynamic = false
	if !m.faulty {
		// EnsureHealth may have attached a ledger to a machine that
		// never received a plan; drop it with the rest.
		m.health = nil
		return
	}
	// An empty plan projects a nil view onto every tree, which is the
	// documented "detach" of tree.SetFaults; this goes through the
	// Router interface so cycle-backed (OTC) routers detach too.
	empty := fault.New(0)
	for i := 0; i < m.K; i++ {
		m.rows[i].ApplyFaults(empty, true, i, nil)
		m.cols[i].ApplyFaults(empty, false, i, nil)
	}
	m.plan, m.health, m.stuck = nil, nil, nil
	m.faulty = false
}

// Recycle restores the machine to its as-constructed state: fault
// plan detached, routing occupancy reset, every existing register
// bank zeroed in place, tree roots zeroed, sticky error and tracer
// cleared. The register file — and its memory — is kept: fresh banks
// are all-zero, so zeroing in place is observationally identical to
// reallocation and a recycled machine re-runs a workload without
// register allocations.
func (m *Machine) Recycle() {
	m.ClearFaults()
	m.Reset()
	m.eachBank(func(_ Reg, bank []int64) {
		for i := range bank {
			bank[i] = 0
		}
	})
	for i := range m.rowRoot {
		m.rowRoot[i] = 0
		m.colRoot[i] = 0
	}
	m.ClearErr()
	m.Tracer = nil
}
