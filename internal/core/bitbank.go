package core

import (
	"repro/internal/bits"
)

// This file adds packed bit banks to the machine: K×K Boolean
// register shadows stored 64 BPs per uint64 word (internal/bits).
// They exist for the packed Boolean execution mode (internal/packed):
// LoadGraph mirrors the adjacency register into a bit bank through
// the same stuck-BP write guard as the scalar bank, so the packed
// engine's input is exactly the Boolean image of what the scalar
// program would read, and healthy scalar sweeps can word-skip all-zero
// spans. Bit banks carry data only — no timing is ever derived from
// them; every simulated bit-time still comes from the tree routers.
//
// Lifecycle mirrors the scalar exotic banks: grown on first use,
// zeroed by Recycle, captured and restored by Snapshot/Restore.

// BitBank returns (allocating on first use) the packed K×K bit bank
// shadowing register r.
func (m *Machine) BitBank(r Reg) *bits.Matrix {
	if b, ok := m.bitRegs[r]; ok {
		return b
	}
	if m.bitRegs == nil {
		m.bitRegs = make(map[Reg]*bits.Matrix)
	}
	b := bits.NewMatrix(m.K)
	m.bitRegs[r] = b
	return b
}

// HasBitBank reports whether a bit bank for r has been created,
// without creating one.
func (m *Machine) HasBitBank(r Reg) bool {
	_, ok := m.bitRegs[r]
	return ok
}

// SetBit writes bit (i,j) of register r's bit bank. A stuck BP's
// register file is frozen, packed shadows included: writes to it are
// dropped, exactly like Machine.Set.
func (m *Machine) SetBit(r Reg, i, j int, v bool) {
	if m.stuck != nil && m.stuck[[2]int{i, j}] {
		return
	}
	m.BitBank(r).SetTo(i, j, v)
}

// GetBit reads bit (i,j) of register r's bit bank.
func (m *Machine) GetBit(r Reg, i, j int) bool { return m.BitBank(r).Get(i, j) }

// eachBitBank visits every live bit bank.
func (m *Machine) eachBitBank(f func(r Reg, b *bits.Matrix)) {
	for r, b := range m.bitRegs {
		f(r, b)
	}
}
