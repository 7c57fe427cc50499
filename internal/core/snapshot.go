package core

import (
	"repro/internal/tree"
	"repro/internal/vlsi"
)

// This file implements the machine half of checkpointed recovery
// (internal/resilience): Snapshot captures everything a rollback must
// restore for a replay to be bit-identical to the discarded attempt —
// register banks, tree-root data registers, and every router's
// occupancy + transient-ascent counter. Fault state (plan, views,
// health ledger) is deliberately excluded: faults merged after a
// checkpoint survive the rollback, and the ledger is a monotone
// history that must keep the costs the discarded attempt paid.

// Snapshot is a point-in-time copy of a machine's computational
// state, produced by Machine.Snapshot and consumed by
// Machine.Restore. Its register copies share one arena and its router
// states another, so a checkpoint costs a fixed handful of allocations
// whatever the machine's size.
type Snapshot struct {
	// regs lists the registers the machine had banks for, ascending;
	// words holds their banks in that order. roots holds the row
	// roots, then the column roots.
	regs  []Reg
	words []int64
	roots []int64
	// trees holds the K row routers' states, then the K columns'.
	trees []tree.State
}

// CheckpointBanks is the register-file size the checkpoint cost
// model charges per snapshot: the simulated machine writes a fixed
// architectural register file, so the cost is a constant of the
// machine. The host-side register file must NOT be the charge basis —
// it grows lazily as programs name registers, so its size depends on
// what previously ran on the machine (a recycled cache machine
// carries the banks of earlier workloads), which would leak host
// object lifetime into simulated time.
const CheckpointBanks = 16

// routerState is the optional per-router snapshot capability. The
// native tree routers implement it; emulated (OTC) routers do not,
// and Snapshot returns SnapshotError for machines built over them.
type routerState interface {
	StateWords() int
	SnapshotInto(s *tree.State, buf []vlsi.Time) []vlsi.Time
	Restore(*tree.State)
}

// Snapshot captures the machine's register banks, tree-root
// registers, and per-router occupancy and ascent counters. It fails
// with a SnapshotError on machines whose routers do not expose their
// state (the OTC emulation shares physical trees across groups).
func (m *Machine) Snapshot() (*Snapshot, error) {
	nregs, occWords := 0, 0
	m.eachBank(func(Reg, []int64) { nregs++ })
	for i := 0; i < m.K; i++ {
		rr, ok := m.rows[i].(routerState)
		if !ok {
			return nil, &SnapshotError{Reason: "row router does not expose its state (emulated machine?)"}
		}
		cc, ok := m.cols[i].(routerState)
		if !ok {
			return nil, &SnapshotError{Reason: "column router does not expose its state (emulated machine?)"}
		}
		occWords += rr.StateWords() + cc.StateWords()
	}
	s := &Snapshot{
		regs:  make([]Reg, 0, nregs),
		words: make([]int64, 0, nregs*m.K*m.K),
		roots: append(append(make([]int64, 0, 2*m.K), m.rowRoot...), m.colRoot...),
		trees: make([]tree.State, 2*m.K),
	}
	m.eachBank(func(r Reg, bank []int64) {
		s.regs = append(s.regs, r)
		s.words = append(s.words, bank...)
	})
	occ := make([]vlsi.Time, occWords)
	for i := 0; i < m.K; i++ {
		occ = m.rows[i].(routerState).SnapshotInto(&s.trees[i], occ)
		occ = m.cols[i].(routerState).SnapshotInto(&s.trees[m.K+i], occ)
	}
	return s, nil
}

// Restore rolls the machine's computational state back to a
// Snapshot: banks captured then are copied back in place, banks
// created since are zeroed (they did not exist at the checkpoint, so
// they must read as fresh), roots and router states are restored,
// and the sticky error is cleared — the failed attempt that set it
// is being discarded. The fault plan, views and health ledger are
// untouched; callers that merged a new plan since the snapshot call
// MergeFaults first and Restore second, so the restored ascent
// counters take effect after SetFaults zeroed them.
func (m *Machine) Restore(s *Snapshot) error {
	regs, saved := s.regs, s.words
	m.eachBank(func(r Reg, bank []int64) {
		if len(regs) > 0 && regs[0] == r {
			saved = saved[copy(bank, saved):]
			regs = regs[1:]
		} else {
			clear(bank)
		}
	})
	copy(m.colRoot, s.roots[copy(m.rowRoot, s.roots):])
	for i := 0; i < m.K; i++ {
		rr, ok := m.rows[i].(routerState)
		if !ok {
			return &SnapshotError{Reason: "row router does not expose its state (emulated machine?)"}
		}
		cc, ok := m.cols[i].(routerState)
		if !ok {
			return &SnapshotError{Reason: "column router does not expose its state (emulated machine?)"}
		}
		rr.Restore(&s.trees[i])
		cc.Restore(&s.trees[m.K+i])
	}
	m.ClearErr()
	return nil
}
