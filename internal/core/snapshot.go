package core

import "repro/internal/tree"

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
// Machine.Restore.
type Snapshot struct {
	banks            map[Reg][]int64
	rowRoot, colRoot []int64
	rows, cols       []*tree.State
}

// CheckpointBanks is the register-file size the checkpoint cost
// model charges per snapshot: the simulated machine writes a fixed
// architectural register file, so the cost is a constant of the
// machine. The host-side bank map must NOT be the charge basis — it
// grows lazily as programs name registers, so its size depends on
// what previously ran on the machine (a recycled cache machine
// carries the banks of earlier workloads), which would leak host
// object lifetime into simulated time.
const CheckpointBanks = 16

// routerState is the optional per-router snapshot capability. The
// native tree routers implement it; emulated (OTC) routers do not,
// and Snapshot returns SnapshotError for machines built over them.
type routerState interface {
	Snapshot() *tree.State
	Restore(*tree.State)
}

// Snapshot captures the machine's register banks, tree-root
// registers, and per-router occupancy and ascent counters. It fails
// with a SnapshotError on machines whose routers do not expose their
// state (the OTC emulation shares physical trees across groups).
func (m *Machine) Snapshot() (*Snapshot, error) {
	s := &Snapshot{
		banks:   make(map[Reg][]int64),
		rowRoot: append([]int64(nil), m.rowRoot...),
		colRoot: append([]int64(nil), m.colRoot...),
		rows:    make([]*tree.State, m.K),
		cols:    make([]*tree.State, m.K),
	}
	m.eachBank(func(r Reg, bank []int64) {
		s.banks[r] = append([]int64(nil), bank...)
	})
	for i := 0; i < m.K; i++ {
		rr, ok := m.rows[i].(routerState)
		if !ok {
			return nil, &SnapshotError{Reason: "row router does not expose its state (emulated machine?)"}
		}
		cc, ok := m.cols[i].(routerState)
		if !ok {
			return nil, &SnapshotError{Reason: "column router does not expose its state (emulated machine?)"}
		}
		s.rows[i] = rr.Snapshot()
		s.cols[i] = cc.Snapshot()
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
	m.eachBank(func(r Reg, bank []int64) {
		if saved, ok := s.banks[r]; ok {
			copy(bank, saved)
		} else {
			for i := range bank {
				bank[i] = 0
			}
		}
	})
	copy(m.rowRoot, s.rowRoot)
	copy(m.colRoot, s.colRoot)
	for i := 0; i < m.K; i++ {
		rr, ok := m.rows[i].(routerState)
		if !ok {
			return &SnapshotError{Reason: "row router does not expose its state (emulated machine?)"}
		}
		cc, ok := m.cols[i].(routerState)
		if !ok {
			return &SnapshotError{Reason: "column router does not expose its state (emulated machine?)"}
		}
		rr.Restore(s.rows[i])
		cc.Restore(s.cols[i])
	}
	m.ClearErr()
	return nil
}
