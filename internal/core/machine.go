// Package core implements the orthogonal trees network (OTN) of
// Nath, Maheshwari and Bhatt — the paper's primary contribution,
// known today as the mesh of trees.
//
// A (K×K)-OTN is a K×K matrix of base processors (BPs) in which every
// row and every column of BPs forms the leaves of a complete binary
// tree of internal processors (IPs). The roots of the row trees are
// the input ports and the roots of the column trees the output ports
// (Section II-A). BPs do the arithmetic; IPs move words and perform
// the combining ascents (COUNT/SUM/MIN).
//
// The machine is simulated functionally (registers really carry the
// values) while every communication is routed through the
// contention-aware pipelined tree routers of internal/tree, whose
// edges take their lengths from the measured chip layout. Time is
// therefore an output of the simulation, in bit-times under the
// configured wire-delay model, and the paper's Θ(log² N) primitive
// cost (Section II-B) is measured, not asserted.
package core

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/tree"
	"repro/internal/vlsi"
)

// Null is the distinguished "no value" word the paper's programs load
// into registers to deselect a BP (e.g. step 5 of SORT-OTC loads NULL
// into D). It is the identity of MIN ascents' complement: selected
// minima ignore Null entries.
const Null int64 = math.MinInt64

// Vector identifies a row or a column of base processors — the
// "Vector" argument of every primitive in Section II-B.
type Vector struct {
	// IsRow selects a row tree when true, a column tree when false.
	IsRow bool
	// Index is the row or column index.
	Index int
}

// Row returns the vector for row i.
func Row(i int) Vector { return Vector{IsRow: true, Index: i} }

// Col returns the vector for column j.
func Col(j int) Vector { return Vector{IsRow: false, Index: j} }

// String renders the vector as the paper writes it.
func (v Vector) String() string {
	if v.IsRow {
		return fmt.Sprintf("row(%d)", v.Index)
	}
	return fmt.Sprintf("column(%d)", v.Index)
}

// Sel selects a subset of the K positions of a vector — the
// "Selector" of the paper's Source/Dest pairs. A nil Sel selects all.
type Sel func(k int) bool

// All selects every position.
func All(int) bool { return true }

// One returns a selector matching exactly position j.
func One(j int) Sel { return func(k int) bool { return k == j } }

// And intersects selectors (nil operands mean "all"). Nil operands
// are dropped at combine time, so the common one-sided cases return
// the other operand unchanged — no closure, no per-element nil test.
func And(a, b Sel) Sel {
	if a == nil {
		if b == nil {
			return All
		}
		return b
	}
	if b == nil {
		return a
	}
	return func(k int) bool { return a(k) && b(k) }
}

// Router is the communication service of one row or column tree. The
// OTN uses the measured tree routers of internal/tree directly; the
// OTC (internal/otc) substitutes routers that add the cycle
// circulation and pipelining of Section V-B, which is exactly how the
// paper argues the OTC runs every OTN algorithm in the same time
// (Section VI: "the ith group is simulated by the ith row tree of the
// OTC").
type Router interface {
	// Broadcast floods one word from the root to all leaves.
	Broadcast(rel vlsi.Time) (perLeaf []vlsi.Time, done vlsi.Time)
	// Gather routes one word from leaf j to the root.
	Gather(j int, rel vlsi.Time) vlsi.Time
	// Reduce performs a combining ascent with per-leaf release times.
	Reduce(rels []vlsi.Time) vlsi.Time
	// ReduceUniform is Reduce with a single release time.
	ReduceUniform(rel vlsi.Time) vlsi.Time
	// ExchangePairs exchanges words between leaves j and j+stride.
	ExchangePairs(stride int, rel vlsi.Time) vlsi.Time
	// Route moves one word between two nodes (heap indices; use
	// Leaf to name leaves).
	Route(src, dst int, rel vlsi.Time) vlsi.Time
	// Leaf translates a leaf position to a node index.
	Leaf(j int) int
	// ApplyFaults projects a fault plan onto the router's tree,
	// identified as row/column index of the machine. A nil or empty
	// plan detaches nothing — routers start healthy.
	ApplyFaults(p *fault.Plan, row bool, index int, h *fault.Health)
	// CutLeaves lists the leaf positions currently cut off from the
	// root by dead hardware, ascending; nil when healthy.
	CutLeaves() []int
	// Reset clears all occupancy state.
	Reset()
}

// Machine is a simulated (K×K)-OTN (or an OTC emulating one, when
// built with NewWithRouters).
type Machine struct {
	// K is the side of the base.
	K int
	// Cfg is the word width and delay model.
	Cfg vlsi.Config
	// Geom is the measured chip geometry (area, tree edge lengths);
	// nil for machines built over custom routers.
	Geom *layout.OTNGeom

	rows, cols []Router
	area       vlsi.Area

	// banks is the register file, indexed by Reg. Each bank is one
	// contiguous row-major K×K slice (BP(i,j) at index i*K+j), so a
	// row sweep is unit-stride and a column sweep a single constant
	// stride. The six paper registers share one arena allocated at
	// construction; any other register's bank is allocated the first
	// time a write, view or primitive touches it, and is nil until
	// then (Get reads such a register as zero).
	banks [][]int64

	rowRoot []int64
	colRoot []int64

	// Sticky error and fault state (see errors.go, degraded.go).
	err    error
	faulty bool
	plan   *fault.Plan
	health *fault.Health
	// stuck marks the frozen BPs, indexed like a bank; nil when the
	// plan sticks none.
	stuck []bool
	// dynamic records that the plan mutated mid-run (MergeFaults):
	// the recovery supervisor merged arrivals into the live plan, so
	// the machine's fault history is no longer "as injected" — the
	// machine cache drops such machines rather than proving a scrub.
	dynamic bool

	// perm is PermuteVector's validation/staging scratch.
	perm permScratch

	// Tracer, when non-nil, receives one event per primitive.
	Tracer func(op string, vec Vector, start, end vlsi.Time)
}

// permScratch is PermuteVector's per-call working set.
type permScratch struct {
	seen []bool
	vals []int64
}

// NewWithRouters builds a machine whose K row and K column trees are
// the given routers and whose chip area is the given value. The OTC
// package uses this to run every OTN program on cycle-backed routers.
func NewWithRouters(k int, cfg vlsi.Config, area vlsi.Area, rows, cols []Router) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !vlsi.IsPow2(k) {
		return nil, fmt.Errorf("core: base side %d is not a power of two", k)
	}
	if len(rows) != k || len(cols) != k {
		return nil, fmt.Errorf("core: %d row / %d column routers for K=%d", len(rows), len(cols), k)
	}
	m := &Machine{
		K: k, Cfg: cfg, area: area,
		rows: rows, cols: cols,
		rowRoot: make([]int64, k),
		colRoot: make([]int64, k),
	}
	m.init()
	return m, nil
}

// init finishes construction: the six paper registers' banks as one
// contiguous arena (a single allocation, and neighbouring banks stay
// cache-warm across a program's register mix) and the PermuteVector
// scratch.
func (m *Machine) init() {
	n := m.K * m.K
	arena := make([]int64, paperRegs*n)
	m.banks = make([][]int64, paperRegs)
	for r := range m.banks {
		m.banks[r], arena = arena[:n:n], arena[n:]
	}
	m.perm = permScratch{seen: make([]bool, m.K), vals: make([]int64, m.K)}
}

// New builds a (K×K)-OTN under the given configuration. K must be a
// power of two.
func New(k int, cfg vlsi.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom, err := layout.MeasureOTN(k, cfg.WordBits)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		K:       k,
		Cfg:     cfg,
		Geom:    geom,
		area:    geom.Area(),
		rows:    make([]Router, k),
		cols:    make([]Router, k),
		rowRoot: make([]int64, k),
		colRoot: make([]int64, k),
	}
	m.init()
	if err := m.buildTrees(geom, cfg, false); err != nil {
		return nil, err
	}
	return m, nil
}

// buildTrees populates the 2K routers of a native OTN with two bulk
// tree constructor calls (tree.NewBulk: shared latency table, slab
// arenas), one for the row trees and one for the column trees.
func (m *Machine) buildTrees(geom *layout.OTNGeom, cfg vlsi.Config, scaled bool) error {
	build := tree.NewBulk
	if scaled {
		build = tree.NewScaledBulk
	}
	rows, err := build(geom.RowTree, cfg, m.K)
	if err != nil {
		return err
	}
	cols, err := build(geom.ColTree, cfg, m.K)
	if err != nil {
		return err
	}
	for i := range rows {
		m.rows[i], m.cols[i] = rows[i], cols[i]
	}
	return nil
}

// NewDefault builds a (K×K)-OTN with the paper's default
// configuration for problem size n (Θ(log n)-bit words, log-delay).
func NewDefault(k, n int) (*Machine, error) {
	return New(k, vlsi.DefaultConfig(n))
}

// NewScaled builds a (K×K)-OTN whose trees use Thompson's scaling
// technique [31]: IPs grow by a constant factor level by level, the
// wire drivers are distributed into them, and every communication
// primitive drops from Θ(log² N) to Θ(log N) while the area stays
// Θ(N² log² N) — the improvement the paper notes was discovered after
// submission ("each of these communication operations can be
// implemented in just O(log N) time … the area is maintained").
func NewScaled(k int, cfg vlsi.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom, err := layout.MeasureOTN(k, cfg.WordBits)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		K:       k,
		Cfg:     cfg,
		Geom:    geom,
		area:    geom.Area(),
		rows:    make([]Router, k),
		cols:    make([]Router, k),
		rowRoot: make([]int64, k),
		colRoot: make([]int64, k),
	}
	m.init()
	if err := m.buildTrees(geom, cfg, true); err != nil {
		return nil, err
	}
	return m, nil
}

// Area returns the chip area of the machine's layout: Θ(K² log² K)
// for the native OTN, whatever the backing network reports otherwise.
func (m *Machine) Area() vlsi.Area { return m.area }

// WordBits returns the configured word width.
func (m *Machine) WordBits() int { return m.Cfg.WordBits }

// WordTime is the configured word width as a duration: the time one
// word occupies a bit-serial resource.
func (m *Machine) WordTime() vlsi.Time { return vlsi.Time(m.Cfg.WordBits) }

// bank returns the storage of register r, allocating it on first use.
func (m *Machine) bank(r Reg) []int64 {
	if int(r) < len(m.banks) && m.banks[r] != nil {
		return m.banks[r]
	}
	return m.newBank(r)
}

// newBank allocates register r's bank, growing the file to reach it.
func (m *Machine) newBank(r Reg) []int64 {
	if int(r) >= len(m.banks) {
		m.banks = append(m.banks, make([][]int64, int(r)+1-len(m.banks))...)
	}
	m.banks[r] = make([]int64, m.K*m.K)
	return m.banks[r]
}

// eachBank visits every allocated register bank. Snapshot, Restore
// and Recycle go through this.
func (m *Machine) eachBank(f func(r Reg, bank []int64)) {
	for r, b := range m.banks {
		if b != nil {
			f(Reg(r), b)
		}
	}
}

// Get reads register r of BP(i, j). A register the machine has never
// written reads zero, as a fresh bank would.
func (m *Machine) Get(r Reg, i, j int) int64 {
	if int(r) < len(m.banks) && m.banks[r] != nil {
		return m.banks[r][i*m.K+j]
	}
	return 0
}

// Set writes register r of BP(i, j). A stuck BP's register file is
// frozen: writes to it are dropped.
func (m *Machine) Set(r Reg, i, j int, v int64) {
	k := i*m.K + j
	if m.stuck != nil && m.stuck[k] {
		return
	}
	m.bank(r)[k] = v
}

// Bank returns register r over all BPs as one row-major K×K slice,
// BP(i,j) at index i*K+j, so row i is Bank(r)[i*K : (i+1)*K]. The
// view aliases the register file and sees later writes; programs
// hoist it out of per-BP loops instead of calling Get per element. A
// write through the view bypasses the stuck-BP freeze, so a program
// writes through it only while HasStuckBPs is false, and through Set
// (or a primitive), which keeps stuck BPs frozen, otherwise.
func (m *Machine) Bank(r Reg) []int64 { return m.bank(r) }

// HasStuckBPs reports whether the machine's fault plan froze the
// register file of any BP.
func (m *Machine) HasStuckBPs() bool { return m.stuck != nil }

// at reads register r at position k of a vector. A row sweep walks
// the flat bank at unit stride; a column sweep at stride K.
func (m *Machine) at(r Reg, vec Vector, k int) int64 {
	if vec.IsRow {
		return m.bank(r)[vec.Index*m.K+k]
	}
	return m.bank(r)[k*m.K+vec.Index]
}

// vecSpan returns the flat-bank base index and element stride of a
// vector: position k of the vector lives at bank[base+k*step]. The
// primitives hoist (bank, base, step) out of their K-length loops so
// the sweeps run as plain strided array walks.
func (m *Machine) vecSpan(vec Vector) (base, step int) {
	if vec.IsRow {
		return vec.Index * m.K, 1
	}
	return vec.Index, m.K
}

// setAt writes register r at position k of a vector, dropping writes
// to stuck BPs like Set.
func (m *Machine) setAt(r Reg, vec Vector, k int, v int64) {
	i, j := vec.Index, k
	if !vec.IsRow {
		i, j = k, vec.Index
	}
	if m.stuck != nil && m.stuck[i*m.K+j] {
		return
	}
	m.bank(r)[i*m.K+j] = v
}

// RowRoot reads the data register of row tree i (an input port).
func (m *Machine) RowRoot(i int) int64 { return m.rowRoot[i] }

// SetRowRoot writes the data register of row tree i, modelling data
// presented at input port i.
func (m *Machine) SetRowRoot(i int, v int64) { m.rowRoot[i] = v }

// ColRoot reads the data register of column tree j (an output port).
func (m *Machine) ColRoot(j int) int64 { return m.colRoot[j] }

// SetColRoot writes the data register of column tree j.
func (m *Machine) SetColRoot(j int, v int64) { m.colRoot[j] = v }

// root returns a pointer to the data register of the vector's tree.
func (m *Machine) root(vec Vector) *int64 {
	if vec.IsRow {
		return &m.rowRoot[vec.Index]
	}
	return &m.colRoot[vec.Index]
}

// Router exposes the routing tree of a vector; algorithm code uses it
// for schedules beyond the named primitives (e.g. COMPEX).
func (m *Machine) Router(vec Vector) Router {
	if vec.IsRow {
		return m.rows[vec.Index]
	}
	return m.cols[vec.Index]
}

// checkVec validates a vector against the machine, returning a typed
// error (recorded sticky by the calling primitive) instead of
// panicking.
func (m *Machine) checkVec(op string, vec Vector) error {
	if vec.Index < 0 || vec.Index >= m.K {
		return &VectorError{Op: op, Vec: vec, K: m.K}
	}
	return nil
}

// Reset clears all routing/pipeline state (not register contents), as
// between independent problems.
func (m *Machine) Reset() {
	for i := 0; i < m.K; i++ {
		m.rows[i].Reset()
		m.cols[i].Reset()
	}
}

// routeCompiler is implemented by routers that support compiled
// routing schedules (internal/tree's Tree; the OTC's cycle-backed
// routers interpret always and simply don't implement it).
type routeCompiler interface{ SetCompile(on bool) }

// SetRouteCompile enables or disables route compilation (plan-once /
// replay-many traversal, see internal/tree/plan.go) on every router
// that supports it. Compilation is on by default; disabling pins the
// machine to pure interpretation — the reference side of the
// differential tests. Simulated bit-times are identical either way.
func (m *Machine) SetRouteCompile(on bool) {
	for i := 0; i < m.K; i++ {
		if c, ok := m.rows[i].(routeCompiler); ok {
			c.SetCompile(on)
		}
		if c, ok := m.cols[i].(routeCompiler); ok {
			c.SetCompile(on)
		}
	}
}

// RoutePlansCompiled counts the machine's routers that currently hold
// a compiled routing schedule. It is zero on a fresh, recycled or
// route-compile-disabled machine; the mcache invalidation tests use it
// to pin that Recycle/ClearFaults really drop every plan rather than
// leaving a schedule recorded under the old fault view.
func (m *Machine) RoutePlansCompiled() int {
	type hasPlan interface{ HasRoutePlan() bool }
	n := 0
	for i := 0; i < m.K; i++ {
		if r, ok := m.rows[i].(hasPlan); ok && r.HasRoutePlan() {
			n++
		}
		if r, ok := m.cols[i].(hasPlan); ok && r.HasRoutePlan() {
			n++
		}
	}
	return n
}

// trace emits an event if a tracer is attached and returns end, so
// primitives can close with `return m.trace(...)`.
func (m *Machine) trace(op string, vec Vector, start, end vlsi.Time) vlsi.Time {
	if m.Tracer != nil {
		m.Tracer(op, vec, start, end)
	}
	return end
}

// Local charges the time of one bit-serial local step performed in
// parallel by base processors: ops word-operations of the given
// per-word bit cost. Comparison and addition of w-bit words cost w
// bit-times with Θ(1) logic; multiplication costs 2w via the serial
// pipeline multiplier of [6],[13] the paper adopts (Section II-B).
func (m *Machine) Local(rel vlsi.Time, costBits int) vlsi.Time {
	if costBits < 0 {
		m.fail(&MisuseError{Op: "Local", Reason: "negative local cost"})
		return rel
	}
	return rel + vlsi.Time(costBits)
}

// CostCompare is the bit cost of one word comparison or addition.
func (m *Machine) CostCompare() int { return m.Cfg.WordBits }

// CostMul is the bit cost of one word multiplication (serial
// pipeline multiplier).
func (m *Machine) CostMul() int { return 2 * m.Cfg.WordBits }
