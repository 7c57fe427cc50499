// Package cube implements an abstract hypercube SIMD machine with
// pluggable per-dimension communication costs. It exists so the
// PSN and CCC rows of the paper's tables can be produced by *running*
// the cited algorithms rather than by formula: both networks execute
// hypercube programs — the shuffle-exchange by rotating the address
// bits through the exchange position (Stone [25]), the CCC by its
// ASCEND/DESCEND emulation (Preparata–Vuillemin [23]) — and each
// prices a dimension-d exchange differently. The DNS matrix product
// already follows this pattern (internal/algorithms/matrix.DNSSchedule);
// this package adds the general register machine plus the
// Hirschberg–Chandra–Sarwate CONNECT algorithm [12] used by
// Table III.
//
// All operations are functional (registers really move) and timed:
// every dimension step charges DimCost(d) for the wire plus the
// bit-serial operation.
package cube

import (
	"fmt"

	"repro/internal/vlsi"
)

// Machine is a 2^dims-processor hypercube register machine.
type Machine struct {
	// P is the number of processors, dims its log.
	P, dims int
	// WordBits is the word width of every register.
	WordBits int
	// DimCost prices one communication step along dimension d on the
	// host network (shuffle cycle, CCC cycle rotation or cube wire).
	DimCost func(d int) vlsi.Time

	regs map[string][]int64
}

// New builds a hypercube machine over p processors (a power of two).
func New(p, wordBits int, dimCost func(d int) vlsi.Time) (*Machine, error) {
	if !vlsi.IsPow2(p) || p < 2 {
		return nil, fmt.Errorf("cube: %d processors; want a power of two ≥ 2", p)
	}
	if wordBits < 1 {
		return nil, fmt.Errorf("cube: word width %d", wordBits)
	}
	if dimCost == nil {
		return nil, fmt.Errorf("cube: nil dimension cost")
	}
	return &Machine{
		P:        p,
		dims:     vlsi.Log2Floor(p),
		WordBits: wordBits,
		DimCost:  dimCost,
		regs:     map[string][]int64{},
	}, nil
}

// bank returns (allocating if needed) a register over all PEs.
func (m *Machine) bank(r string) []int64 {
	b, ok := m.regs[r]
	if !ok {
		b = make([]int64, m.P)
		m.regs[r] = b
	}
	return b
}

// Get reads register r of PE p.
func (m *Machine) Get(r string, p int) int64 { return m.bank(r)[p] }

// Set writes register r of PE p.
func (m *Machine) Set(r string, p int, v int64) { m.bank(r)[p] = v }

// Load fills register r from a slice.
func (m *Machine) Load(r string, vals []int64) {
	if len(vals) != m.P {
		panic(fmt.Sprintf("cube: loading %d values into %d PEs", len(vals), m.P))
	}
	copy(m.bank(r), vals)
}

// Exchange performs one SIMD step along dimension d: every PE p
// receives register r of its neighbour p^2^d into register dst. Cost:
// one dimension step plus the word.
func (m *Machine) Exchange(d int, r, dst string, rel vlsi.Time) vlsi.Time {
	if d < 0 || d >= m.dims {
		panic(fmt.Sprintf("cube: dimension %d of %d", d, m.dims))
	}
	src := m.bank(r)
	out := m.bank(dst)
	stride := 1 << uint(d)
	for p := 0; p < m.P; p++ {
		out[p] = src[p^stride]
	}
	return rel + m.DimCost(d) + vlsi.Time(m.WordBits)
}

// minIgnoringNull combines two words under the MIN-with-Null
// convention used throughout the graph programs.
func minIgnoringNull(a, b int64) int64 {
	const null = -1 << 62
	if a <= null {
		return b
	}
	if b <= null {
		return a
	}
	if b < a {
		return b
	}
	return a
}

// SegReduceMin computes, within every aligned block of 2^lowDims
// consecutive PEs, the minimum of register r (Null entries ignored)
// and leaves it in register dst of every PE of the block — an ASCEND
// sweep over the low dimensions followed by the mirroring DESCEND
// broadcast, the standard hypercube segmented reduction.
func (m *Machine) SegReduceMin(lowDims int, r, dst string, rel vlsi.Time) vlsi.Time {
	if lowDims < 0 || lowDims > m.dims {
		panic(fmt.Sprintf("cube: segment of %d dims in a %d-cube", lowDims, m.dims))
	}
	acc := m.bank(dst)
	copy(acc, m.bank(r))
	t := rel
	for d := 0; d < lowDims; d++ {
		stride := 1 << uint(d)
		next := make([]int64, m.P)
		for p := 0; p < m.P; p++ {
			next[p] = minIgnoringNull(acc[p], acc[p^stride])
		}
		copy(acc, next)
		t += m.DimCost(d) + vlsi.Time(m.WordBits)
	}
	return t
}

// SegBroadcast copies register r of each block's leader (the PE whose
// low bits are zero) into dst of the whole block — a DESCEND sweep.
func (m *Machine) SegBroadcast(lowDims int, r, dst string, rel vlsi.Time) vlsi.Time {
	if lowDims < 0 || lowDims > m.dims {
		panic(fmt.Sprintf("cube: segment of %d dims in a %d-cube", lowDims, m.dims))
	}
	src := m.bank(r)
	out := m.bank(dst)
	mask := (1 << uint(lowDims)) - 1
	t := rel
	for p := 0; p < m.P; p++ {
		out[p] = src[p&^mask]
	}
	for d := lowDims - 1; d >= 0; d-- {
		t += m.DimCost(d) + vlsi.Time(m.WordBits)
	}
	return t
}

// Permute realizes an arbitrary permutation/fetch: every PE p
// receives register r of PE from[p] into dst. A hypercube routes any
// such pattern in two dimension sweeps (Beneš), so the charge is
// 2·dims dimension steps; the data movement itself is exact.
func (m *Machine) Permute(from []int64, r, dst string, rel vlsi.Time) vlsi.Time {
	if len(from) != m.P {
		panic(fmt.Sprintf("cube: permutation of length %d on %d PEs", len(from), m.P))
	}
	src := m.bank(r)
	out := m.bank(dst)
	for p := 0; p < m.P; p++ {
		f := from[p]
		if f < 0 || int(f) >= m.P {
			panic(fmt.Sprintf("cube: fetch index %d out of range", f))
		}
		out[p] = src[f]
	}
	t := rel
	for pass := 0; pass < 2; pass++ {
		for d := 0; d < m.dims; d++ {
			t += m.DimCost(d) + vlsi.Time(m.WordBits)
		}
	}
	return t
}
