// Package otc implements the orthogonal tree cycles of Section V: a
// (K×K) matrix of cycles, each of log N base processors, with row and
// column trees over the cycles. With K = N/log N the OTC holds the
// same N² base processors as an (N×N)-OTN in Θ(N²) area — a log² N
// saving — and runs the paper's algorithms in the same time, because
// every tree operation pipelines the log N words of a cycle at
// Θ(log N) intervals (Section V-B).
//
// The package provides three layers:
//
//   - the native Machine with the paper's primitives (CIRCULATE,
//     VECTORCIRCULATE, ROOTTOCYCLE, CYCLETOROOT, CYCLETOCYCLE and the
//     SUM-/MIN- variants);
//   - procedure SORT-OTC of Section VI, written against those
//     primitives exactly as the paper lists it;
//   - the block-emulation adapter of Section VI (NewEmulatedOTN): a
//     core.Machine whose routers are cycle-backed, so every OTN
//     program in this repository also runs "on the OTC" with OTC
//     timing and OTC area.
package otc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/tree"
	"repro/internal/vlsi"
)

// Machine is a simulated (K×K)-OTC with cycles of length L.
type Machine struct {
	// K is the number of cycles per side; L the cycle length.
	K, L int
	// Cfg is the word width and wire-delay model.
	Cfg vlsi.Config
	// Geom is the measured chip geometry.
	Geom *layout.OTCGeom

	rows, cols []*tree.Tree
	// shift is the cost of one CIRCULATE step: a word over the
	// longest cycle wire.
	shift vlsi.Time

	// banks is the register file, indexed by core.Reg: register r of
	// BP(i, j, q) is banks[r][i][j][q]. It starts with nil slots for
	// the six paper registers; a bank is allocated the first time the
	// machine touches its register.
	banks [][][][]int64
	// rootQ holds the word stream at each tree root: the OTC's ports
	// carry log N words per operation, Θ(log N) apart (Section V-B).
	rowRootQ, colRootQ [][]int64
}

// New builds a (K×K)-OTC with cycles of length l. K must be a power
// of two.
func New(k, l int, cfg vlsi.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l < 1 {
		return nil, fmt.Errorf("otc: cycle length %d", l)
	}
	geom, err := layout.MeasureOTC(k, l, cfg.WordBits)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		K: k, L: l, Cfg: cfg, Geom: geom,
		rows:     make([]*tree.Tree, k),
		cols:     make([]*tree.Tree, k),
		banks:    make([][][][]int64, core.RegFlag+1),
		rowRootQ: make([][]int64, k),
		colRootQ: make([][]int64, k),
	}
	maxEdge := 1
	for _, e := range geom.CycleEdgeLen {
		if e > maxEdge {
			maxEdge = e
		}
	}
	m.shift = cfg.WireTransit(maxEdge)
	for i := 0; i < k; i++ {
		if m.rows[i], err = tree.New(geom.RowTree, cfg); err != nil {
			return nil, err
		}
		if m.cols[i], err = tree.New(geom.ColTree, cfg); err != nil {
			return nil, err
		}
		m.rowRootQ[i] = make([]int64, l)
		m.colRootQ[i] = make([]int64, l)
	}
	return m, nil
}

// Area returns the chip area, Θ((K·log N)²) = Θ(N²) at the paper's
// parameters.
func (m *Machine) Area() vlsi.Area { return m.Geom.Area() }

// WordTime is the word width as a duration.
func (m *Machine) WordTime() vlsi.Time { return vlsi.Time(m.Cfg.WordBits) }

// bank returns register r over all BPs, allocating it on first use.
func (m *Machine) bank(r core.Reg) [][][]int64 {
	if int(r) < len(m.banks) && m.banks[r] != nil {
		return m.banks[r]
	}
	if int(r) >= len(m.banks) {
		m.banks = append(m.banks, make([][][][]int64, int(r)+1-len(m.banks))...)
	}
	m.banks[r] = m.makeBank()
	return m.banks[r]
}

// makeBank allocates one register over all BPs: the K×K×L words as a
// single arena sliced into cycles.
func (m *Machine) makeBank() [][][]int64 {
	arena := make([]int64, m.K*m.K*m.L)
	b := make([][][]int64, m.K)
	rows := make([][]int64, m.K*m.K)
	for i := range b {
		b[i] = rows[i*m.K : (i+1)*m.K]
		for j := range b[i] {
			b[i][j], arena = arena[:m.L:m.L], arena[m.L:]
		}
	}
	return b
}

// Get reads register r of BP(i, j, q).
func (m *Machine) Get(r core.Reg, i, j, q int) int64 { return m.bank(r)[i][j][q] }

// Set writes register r of BP(i, j, q).
func (m *Machine) Set(r core.Reg, i, j, q int, v int64) { m.bank(r)[i][j][q] = v }

// SetRowRootQ loads the stream of L words presented at row port i.
func (m *Machine) SetRowRootQ(i int, words []int64) {
	if len(words) != m.L {
		panic(fmt.Sprintf("otc: %d words at a port carrying %d", len(words), m.L))
	}
	copy(m.rowRootQ[i], words)
}

// router and rootQ dispatch on the vector kind.
func (m *Machine) router(vec core.Vector) *tree.Tree {
	if vec.IsRow {
		return m.rows[vec.Index]
	}
	return m.cols[vec.Index]
}

func (m *Machine) rootQ(vec core.Vector) []int64 {
	if vec.IsRow {
		return m.rowRootQ[vec.Index]
	}
	return m.colRootQ[vec.Index]
}

// cycleAt returns the register slice of cycle k within the vector
// (cycle (vec,k) of the row, or (k,vec) of the column).
func (m *Machine) cycleAt(r core.Reg, vec core.Vector, k int) []int64 {
	if vec.IsRow {
		return m.bank(r)[vec.Index][k]
	}
	return m.bank(r)[k][vec.Index]
}

// Circulate performs one step of the paper's CIRCULATE on cycle
// (i, j): R(q) := R((q+1) mod L) for every register in regs, the
// words moving over the cycle wires in one pipelined shift.
func (m *Machine) Circulate(i, j int, regs []core.Reg, rel vlsi.Time) vlsi.Time {
	for _, r := range regs {
		b := m.bank(r)[i][j]
		first := b[0]
		copy(b, b[1:])
		b[m.L-1] = first
	}
	// One word per register crosses each cycle wire; extra registers
	// follow in the pipeline.
	return rel + m.shift + vlsi.Time((len(regs)-1)*m.Cfg.WordBits)
}

// VectorCirculate circulates every cycle of the vector in parallel.
func (m *Machine) VectorCirculate(vec core.Vector, regs []core.Reg, rel vlsi.Time) vlsi.Time {
	done := rel
	for k := 0; k < m.K; k++ {
		i, j := vec.Index, k
		if !vec.IsRow {
			i, j = k, vec.Index
		}
		if t := m.Circulate(i, j, regs, rel); t > done {
			done = t
		}
	}
	return done
}

// RootToCycle implements Section V-B operation 1: the L words queued
// at the vector's root enter the tree in a pipeline, each broadcast
// to BP(0) of the selected cycles and then circulated, so that word q
// ends in register dst of BP(q). A nil selector selects every cycle.
func (m *Machine) RootToCycle(vec core.Vector, sel core.Sel, dst core.Reg, rel vlsi.Time) vlsi.Time {
	q := m.rootQ(vec)
	for k := 0; k < m.K; k++ {
		if sel == nil || sel(k) {
			cy := m.cycleAt(dst, vec, k)
			copy(cy, q)
		}
	}
	// Timing: broadcast p enters one word-time after broadcast p−1;
	// circulate p follows broadcast p and circulate p−1.
	router := m.router(vec)
	w := m.WordTime()
	var circDone vlsi.Time
	var done vlsi.Time
	for p := 0; p < m.L; p++ {
		_, d := router.Broadcast(rel + vlsi.Time(p)*w)
		if p < m.L-1 {
			circDone = vlsi.MaxTime(circDone, d) + m.shift
			done = circDone
		} else {
			done = vlsi.MaxTime(circDone, d)
		}
	}
	return done
}

// CycleToRoot implements Section V-B operation 2: the selected source
// cycle's src register contents stream to the root, one word per
// pipeline slot, landing in the root queue with word q from BP(q).
// The source register contents are preserved (the paper circulates
// them L times in all).
func (m *Machine) CycleToRoot(vec core.Vector, sel core.Sel, src core.Reg, rel vlsi.Time) vlsi.Time {
	k := m.selectOne(vec, sel)
	copy(m.rootQ(vec), m.cycleAt(src, vec, k))
	router := m.router(vec)
	w := m.WordTime()
	var circDone, done vlsi.Time
	for p := 0; p < m.L; p++ {
		d := router.Gather(k, vlsi.MaxTime(rel+vlsi.Time(p)*w, circDone))
		circDone = vlsi.MaxTime(circDone, rel) + m.shift
		done = d
	}
	return done
}

// selectOne finds the single selected cycle.
func (m *Machine) selectOne(vec core.Vector, sel core.Sel) int {
	idx := -1
	for k := 0; k < m.K; k++ {
		if sel == nil || sel(k) {
			if idx >= 0 {
				panic(fmt.Sprintf("otc: selector chose cycles %d and %d on %v", idx, k, vec))
			}
			idx = k
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("otc: selector chose no cycle on %v", vec))
	}
	return idx
}

// SumCycleToRoot replaces the LEAFTOROOT steps with SUM ascents: the
// root queue receives, for each position q, the sum of register src
// at BP(q) over the selected cycles.
func (m *Machine) SumCycleToRoot(vec core.Vector, sel core.Sel, src core.Reg, rel vlsi.Time) vlsi.Time {
	q := m.rootQ(vec)
	for p := 0; p < m.L; p++ {
		var acc int64
		for k := 0; k < m.K; k++ {
			if sel == nil || sel(k) {
				acc += m.cycleAt(src, vec, k)[p]
			}
		}
		q[p] = acc
	}
	router := m.router(vec)
	w := m.WordTime()
	var circDone, done vlsi.Time
	for p := 0; p < m.L; p++ {
		d := router.ReduceUniform(vlsi.MaxTime(rel+vlsi.Time(p)*w, circDone))
		circDone = vlsi.MaxTime(circDone, rel) + m.shift
		done = d
	}
	return done
}

// CycleToCycle is Section V-B operation 3: CYCLETOROOT of the source
// cycle followed by ROOTTOCYCLE into the destinations; BP(q) of every
// destination receives the word of BP(q) of the source.
func (m *Machine) CycleToCycle(vec core.Vector, srcSel core.Sel, src core.Reg, dstSel core.Sel, dst core.Reg, rel vlsi.Time) vlsi.Time {
	t := m.CycleToRoot(vec, srcSel, src, rel)
	return m.RootToCycle(vec, dstSel, dst, t)
}

// SumCycleToCycle distributes per-position sums to the destinations.
func (m *Machine) SumCycleToCycle(vec core.Vector, src core.Reg, dstSel core.Sel, dst core.Reg, rel vlsi.Time) vlsi.Time {
	t := m.SumCycleToRoot(vec, nil, src, rel)
	return m.RootToCycle(vec, dstSel, dst, t)
}

// ParDo mirrors core.Machine.ParDo for OTC programs.
func (m *Machine) ParDo(rows bool, rel vlsi.Time, f func(vec core.Vector, rel vlsi.Time) vlsi.Time) vlsi.Time {
	done := rel
	for i := 0; i < m.K; i++ {
		vec := core.Col(i)
		if rows {
			vec = core.Row(i)
		}
		if t := f(vec, rel); t > done {
			done = t
		}
	}
	return done
}

// Local charges a bit-serial local step at all BPs.
func (m *Machine) Local(rel vlsi.Time, costBits int) vlsi.Time {
	if costBits < 0 {
		panic("otc: negative local cost")
	}
	return rel + vlsi.Time(costBits)
}

// Reset clears routing state between independent problems.
func (m *Machine) Reset() {
	for i := 0; i < m.K; i++ {
		m.rows[i].Reset()
		m.cols[i].Reset()
	}
}
