// Package ccc implements the cube-connected cycles of Preparata and
// Vuillemin [23], the paper's second "fast but large" baseline: the
// hypercube's corners replaced by cycles so every processor has
// degree 3, with the same Θ(N²/log² N) layout area as the PSN and the
// same Θ(N/log N) longest wires.
//
// The machine executes hypercube ASCEND/DESCEND programs with the
// standard CCC realization: the low log(log N)-ish dimensions live
// inside the cycles (rotation steps over constant-length wires), the
// high dimensions cross cube wires whose measured length — and hence,
// under Thompson's model, whose Θ(log N) delay — grows with the
// dimension. Bitonic sort is the Table I workload: Θ(log² N)
// compare steps, Θ(log³ N) bit-times under the log-delay model,
// Θ(log² N) under the constant-delay model of Table IV.
package ccc

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/vlsi"
)

// Machine is a simulated N-processor cube-connected cycles network.
type Machine struct {
	// N is the number of processors (a power of two here; the
	// canonical c·2^c sizes are a constant factor away and the
	// tables only use asymptotics).
	N int
	// Cfg is the word width and delay model.
	Cfg vlsi.Config

	m int // log2 N
	// cyc is the number of low dimensions realized inside cycles.
	cyc int
	// rotHop is one cycle-rotation step (constant-length wires).
	rotHop vlsi.Time
}

// New builds an N-processor CCC. N must be a power of two ≥ 2.
func New(n int, cfg vlsi.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !vlsi.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("ccc: %d processors; want a power of two ≥ 2", n)
	}
	m := vlsi.Log2Floor(n)
	cyc := vlsi.Log2Ceil(m)
	if cyc > m {
		cyc = m
	}
	return &Machine{
		N:      n,
		Cfg:    cfg,
		m:      m,
		cyc:    cyc,
		rotHop: cfg.WireTransit(2),
	}, nil
}

// Area returns the chip area under the cited layout.
func (c *Machine) Area() vlsi.Area { return layout.CCCArea(c.N, c.Cfg.WordBits) }

// DimTime is the communication cost of one compare-exchange along
// hypercube dimension d: a rotation inside the cycle for the low
// dimensions, a cube wire of measured length for the high ones.
func (c *Machine) DimTime(d int) vlsi.Time {
	if d < c.cyc {
		// Reaching the right cycle position costs up to 2^d
		// rotation steps (cut-through: one hop latency per step plus
		// the word).
		return vlsi.Time(1<<uint(d))*c.Cfg.Model.FirstBit(2) + vlsi.Time(c.Cfg.WordBits)
	}
	return c.Cfg.WireTransit(layout.CCCDimWire(c.N, d-c.cyc))
}

// BitonicSort sorts N values by Batcher's bitonic network run as a
// DESCEND program per merge stage. It returns the sorted values and
// the completion time.
func (c *Machine) BitonicSort(xs []int64, rel vlsi.Time) ([]int64, vlsi.Time) {
	if len(xs) != c.N {
		panic(fmt.Sprintf("ccc: %d values on %d processors", len(xs), c.N))
	}
	vals := append([]int64(nil), xs...)
	t := rel
	cmp := vlsi.Time(c.Cfg.WordBits)
	for s := 1; s <= c.m; s++ {
		for d := s - 1; d >= 0; d-- {
			stride := 1 << uint(d)
			size := 1 << uint(s)
			for i := 0; i < c.N; i++ {
				if i&stride != 0 {
					continue
				}
				asc := i&size == 0
				a, b := vals[i], vals[i+stride]
				if (asc && a > b) || (!asc && a < b) {
					vals[i], vals[i+stride] = b, a
				}
			}
			t += c.DimTime(d) + cmp
		}
	}
	return vals, t
}
