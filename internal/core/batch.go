package core

import "fmt"

// Batch is a sequential adapter over one Machine: problem p of a
// batch runs alone on the machine after a Reset, so its output and
// bit-times are those of a dedicated, freshly Reset machine. The bench
// module's replay reads it (like server.Job.Batchable); the next
// benchmark change deletes it.
type Batch struct {
	m     *Machine
	lanes int
}

// NewBatch wraps m for lanes problems. It refuses an empty batch, a
// faulted machine and a machine with a sticky error.
func NewBatch(m *Machine, lanes int) (*Batch, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("core: batch of %d lanes", lanes)
	}
	if m.Faulty() {
		return nil, fmt.Errorf("core: batching a faulted machine is unsupported")
	}
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("core: batching a machine with a sticky error: %w", err)
	}
	return &Batch{m: m, lanes: lanes}, nil
}

// Lanes returns the number of problems in the batch.
func (bb *Batch) Lanes() int { return bb.lanes }

// Each calls f for every problem in order, resetting the machine
// before each call.
func (bb *Batch) Each(f func(p int, m *Machine)) {
	for p := 0; p < bb.lanes; p++ {
		bb.m.Reset()
		f(p, bb.m)
	}
}

// Err returns the machine's sticky error: the first failure of any
// problem run so far.
func (bb *Batch) Err() error { return bb.m.Err() }
