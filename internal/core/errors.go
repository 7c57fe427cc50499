package core

import "fmt"

// The machine reports misuse and unrecoverable fault outcomes through
// a sticky error rather than panics: primitives keep their
// time-valued signatures (so algorithm code composes release times
// without ceremony), and a primitive that cannot run records a typed
// error and returns its release time unchanged. Callers — the CLI,
// the analysis experiments, tests — check Machine.Err at the
// boundaries where a result is consumed. Panics remain only below
// this layer, for invariants the machine has already validated.

// VectorError reports a vector index outside the machine's base.
type VectorError struct {
	Op  string
	Vec Vector
	K   int
}

func (e *VectorError) Error() string {
	return fmt.Sprintf("core: %s: %v out of range for K=%d", e.Op, e.Vec, e.K)
}

// SelectorError reports a selector that did not select exactly one BP
// where the paper's primitive requires one ("Selector specifies one
// BP in Vector").
type SelectorError struct {
	Op       string
	Vec      Vector
	Selected int // number of selected positions (0, or the count ≥ 2)
}

func (e *SelectorError) Error() string {
	if e.Selected == 0 {
		return fmt.Sprintf("core: %s on %v selected no BP", e.Op, e.Vec)
	}
	return fmt.Sprintf("core: %s on %v selected %d BPs, want exactly one", e.Op, e.Vec, e.Selected)
}

// MisuseError reports invalid primitive arguments (bad stride, bad
// permutation, negative cost).
type MisuseError struct {
	Op     string
	Reason string
}

func (e *MisuseError) Error() string {
	return fmt.Sprintf("core: %s: %s", e.Op, e.Reason)
}

// SnapshotError reports a checkpoint attempted on a machine whose
// routers cannot capture or restore their state.
type SnapshotError struct {
	Reason string
}

func (e *SnapshotError) Error() string {
	return "core: snapshot: " + e.Reason
}

// fail records err as the machine's sticky error (first error wins)
// and mirrors it into the fault health report when one is attached.
func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	if m.health != nil {
		m.health.Fail(err)
	}
}

// Err returns the first misuse or unrecoverable fault outcome
// recorded since construction or the last ClearErr, or nil.
func (m *Machine) Err() error { return m.err }

// ClearErr clears the sticky error (the fault health report keeps its
// own record).
func (m *Machine) ClearErr() { m.err = nil }
