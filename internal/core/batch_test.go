package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// Batching refuses unhealthy machines: an empty batch, a faulted
// machine and a machine carrying a sticky error.
func TestBatchRefusesFaultyMachine(t *testing.T) {
	m, err := NewDefault(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(m, 0); err == nil {
		t.Fatal("NewBatch accepted zero lanes")
	}
	if err := m.InjectFaults(fault.New(1).KillEdge(true, 0, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(m, 2); err == nil {
		t.Fatal("NewBatch accepted a faulted machine")
	}
	m.Recycle()
	if _, err := NewBatch(m, 2); err != nil {
		t.Fatalf("NewBatch on recycled machine: %v", err)
	}

	m.LeafToRoot(Row(0), nil, RegA, 0) // selects every BP: sticky error
	var se *SelectorError
	if !errors.As(m.Err(), &se) {
		t.Fatalf("Err = %v, want *SelectorError", m.Err())
	}
	if _, err := NewBatch(m, 2); !errors.As(err, &se) {
		t.Fatalf("NewBatch on a sticky error = %v, want the *SelectorError", err)
	}
}
