// Package orthotrees is a simulation library for the orthogonal
// trees network (OTN, the mesh of trees) and the orthogonal tree
// cycles (OTC) of Nath, Maheshwari and Bhatt, "Efficient VLSI
// Networks for Parallel Processing Based on Orthogonal Trees" (IEEE
// Transactions on Computers, June 1983), together with the paper's
// baseline networks (mesh, perfect shuffle, cube-connected cycles),
// all costed under Thompson's VLSI model of computation.
//
// The library simulates the networks functionally — registers carry
// real values, algorithms produce real answers — while every word of
// communication is routed through contention-aware, bit-pipelined
// tree routers whose edge lengths come from a measured chip layout.
// Time (in bit-times) and chip area (in λ²) are therefore outputs of
// the simulation, and the paper's A·T² tables can be regenerated as
// parameter sweeps (see the analysis entry points below and
// cmd/otbench).
//
// # Quick start
//
//	m, _ := orthotrees.NewOTN(64)                 // a (64×64)-OTN
//	sorted, elapsed := orthotrees.Sort(m, xs)     // SORT-OTN
//	fmt.Println(sorted, elapsed, m.Area())
//
// # Layers
//
//   - NewOTN / NewOTC / NewEmulatedOTN build machines; Config
//     selects the word width and the wire-delay model (Thompson's
//     logarithmic model by default, the constant-delay model of the
//     paper's Section VII-D as an alternative).
//   - Sort, SortPipelined, BitonicSort, SortOTC, VectorMatrixMult,
//     MatMul, BoolMatMul, ConnectedComponents, MinSpanningTree and
//     DFT are the paper's algorithms.
//   - Table1 … Table4, MSTStudy, FigureAreas regenerate the paper's
//     evaluation artefacts.
//   - NewMesh, NewPSN, NewCCC expose the baselines directly.
//   - NewFaultPlan / RandomFaultPlan / Machine.InjectFaults exercise
//     the degraded-mode execution layer (dead tree hardware is
//     bypassed through the orthogonal trees); FaultSweepStudy
//     measures the robustness surcharge.
package orthotrees

import (
	"math/big"

	"repro/internal/algorithms/dft"
	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/intmul"
	"repro/internal/algorithms/matrix"
	"repro/internal/algorithms/sorting"
	"repro/internal/analysis"
	"repro/internal/ccc"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/mcache"
	"repro/internal/mesh"
	"repro/internal/mot3d"
	"repro/internal/otc"
	"repro/internal/psn"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Core model types.
type (
	// Machine is an orthogonal trees network (or an OTC emulating
	// one; see NewEmulatedOTN).
	Machine = core.Machine
	// OTC is a native orthogonal-tree-cycles machine.
	OTC = otc.Machine
	// Mesh is the mesh-connected baseline.
	Mesh = mesh.Machine
	// PSN is the perfect-shuffle baseline.
	PSN = psn.Machine
	// CCC is the cube-connected-cycles baseline.
	CCC = ccc.Machine
	// Config selects word width and wire-delay model.
	Config = vlsi.Config
	// Time is a simulated duration in bit-times.
	Time = vlsi.Time
	// Area is a chip area in square λ-units.
	Area = vlsi.Area
	// Metric couples area and time (A·T²).
	Metric = vlsi.Metric
	// Reg names a base-processor register.
	Reg = core.Reg
	// Vector addresses a row or column of the base.
	Vector = core.Vector
	// Graph is an undirected graph in adjacency representation.
	Graph = workload.Graph
	// Edge is a weighted undirected edge (MST results).
	Edge = graph.Edge
	// RNG is the deterministic workload generator.
	RNG = workload.RNG
	// Experiment is a regenerated table or figure.
	Experiment = analysis.Experiment
	// MoT3D is the three-dimensional mesh of trees (Leighton's
	// generalization, discussed in the paper's Section VII-B).
	MoT3D = mot3d.Machine
	// TraceRecorder collects and summarizes primitive events.
	TraceRecorder = core.TraceRecorder
	// FaultPlan is a seed-reproducible description of dead tree
	// edges, dead internal processors, stuck base processors and
	// transient corruption, injectable into any Machine.
	FaultPlan = fault.Plan
	// Health is a machine's fault/recovery ledger: what was dead,
	// what was healed, and what the detours cost in bit-times.
	Health = fault.Health
	// FaultSweep is the robustness experiment: correctness and
	// slowdown of SORT-OTN and CONNECTED-COMPONENTS versus the
	// number of injected faults.
	FaultSweep = analysis.FaultSweep
	// FaultSite names one tree site of an OTN: a row or column tree
	// and a heap-indexed node within it.
	FaultSite = fault.Site
	// FaultEvent is one scheduled mid-run fault arrival: a dead-edge
	// site striking at a simulated bit-time.
	FaultEvent = fault.Event
	// FaultSchedule is a seed-reproducible sequence of mid-run fault
	// arrivals, executable under the recovery supervisor (Supervise).
	FaultSchedule = fault.Schedule
	// RecoveryProgram is a computation decomposed into checkpointable
	// steps for the recovery supervisor (see SortProgram,
	// ComponentsProgram and Supervise).
	RecoveryProgram = resilience.Program
	// RecoveryStep is one checkpoint-delimited step of a
	// RecoveryProgram.
	RecoveryStep = resilience.Step
	// RecoveryOptions tunes the supervisor (retry budget).
	RecoveryOptions = resilience.Options
	// RecoverySweep is the dynamic-fault experiment: supervised
	// SORT-OTN and CONNECTED-COMPONENTS versus the number of mid-run
	// fault arrivals, with itemized checkpoint/rollback costs.
	RecoverySweep = analysis.RecoverySweep
	// IncrementalSweep is the streamed-labeling experiment: simulated
	// cost of the incremental CONNECT engine versus a full recompute
	// across batch sizes and grid sizes (see IncrementalStudy).
	IncrementalSweep = analysis.IncrementalSweep
	// MachineCache recycles constructed machines across analysis
	// sweeps and benchmark iterations (see NewMachineCache).
	MachineCache = mcache.Cache
	// MachineKey identifies a machine shape in a MachineCache.
	MachineKey = mcache.Key
)

// The registers the paper's programs name. Any other register is
// interned with NewReg.
const (
	RegA    = core.RegA
	RegB    = core.RegB
	RegC    = core.RegC
	RegD    = core.RegD
	RegR    = core.RegR
	RegFlag = core.RegFlag
)

// NewReg returns the register called name, interning it on first use:
// the same name always yields the same Reg.
func NewReg(name string) Reg { return core.NewReg(name) }

// Delay models.
type (
	// LogDelay is Thompson's logarithmic wire-delay model.
	LogDelay = vlsi.LogDelay
	// ConstantDelay is the Θ(1)-per-wire model of Section VII-D.
	ConstantDelay = vlsi.ConstantDelay
	// LinearDelay charges time proportional to wire length.
	LinearDelay = vlsi.LinearDelay
)

// DefaultConfig returns the paper's configuration for problem size n:
// Θ(log n)-bit words under the logarithmic delay model.
func DefaultConfig(n int) Config { return vlsi.DefaultConfig(n) }

// NewOTN builds a (k×k)-OTN with the default configuration for k²
// base processors. k must be a power of two.
func NewOTN(k int) (*Machine, error) { return core.NewDefault(k, k*k) }

// NewOTNWith builds a (k×k)-OTN under an explicit configuration.
func NewOTNWith(k int, cfg Config) (*Machine, error) { return core.New(k, cfg) }

// NewMachineCache returns an empty machine cache. Checkout pops an
// idle machine for the key (or builds one on a miss); Return recycles
// it — fault plans cleared, registers zeroed — for the next checkout.
// A checked-out machine belongs exclusively to the caller.
func NewMachineCache() *MachineCache { return mcache.New() }

// OTNKey is the cache key for a plain (k×k)-OTN under cfg.
func OTNKey(k int, cfg Config) MachineKey { return mcache.OTNKey(k, cfg) }

// NewScaledOTN builds a (k×k)-OTN using Thompson's scaling technique
// [31]: Θ(log N)-time primitives at unchanged Θ(N² log² N) area (the
// post-submission improvement the paper notes in Sections II-B and
// VII).
func NewScaledOTN(k int, cfg Config) (*Machine, error) { return core.NewScaled(k, cfg) }

// NewMoT3D builds an n×n×n three-dimensional mesh of trees — the
// Section VII-B generalization with Θ(N⁴) area whose matrix product
// needs no operand realignment.
func NewMoT3D(n int, cfg Config) (*MoT3D, error) { return mot3d.New(n, cfg) }

// NewOTC builds a native (k×k)-OTC with cycles of length l.
func NewOTC(k, l int, cfg Config) (*OTC, error) { return otc.New(k, l, cfg) }

// NewEmulatedOTN builds a logical (k×k)-OTN whose communication runs
// over an OTC with cycles of length l — the paper's Section VI
// construction. Every OTN algorithm in this package runs on it
// unchanged, with OTC timing and OTC area.
func NewEmulatedOTN(k, l int, cfg Config) (*Machine, error) { return otc.NewEmulatedOTN(k, l, cfg) }

// NewMesh builds a k×k mesh baseline.
func NewMesh(k int, cfg Config) (*Mesh, error) { return mesh.New(k, cfg) }

// NewPSN builds an n-processor perfect-shuffle baseline.
func NewPSN(n int, cfg Config) (*PSN, error) { return psn.New(n, cfg) }

// NewCCC builds an n-processor cube-connected-cycles baseline.
func NewCCC(n int, cfg Config) (*CCC, error) { return ccc.New(n, cfg) }

// NewRNG returns a deterministic workload generator.
func NewRNG(seed uint64) *RNG { return workload.NewRNG(seed) }

// NewFaultPlan returns an empty fault plan (chain KillEdge, KillIP,
// StickBP, WithTransients onto it). Injecting an empty plan is
// guaranteed to leave the machine bit-identical to one that never saw
// a plan.
func NewFaultPlan(seed uint64) *FaultPlan { return fault.New(seed) }

// RandomFaultPlan returns a plan of nFaults distinct dead tree edges
// scattered uniformly over the 2k trees of a (k×k)-OTN, derived
// entirely from the seed.
func RandomFaultPlan(k, nFaults int, seed uint64) *FaultPlan {
	return fault.Random(k, nFaults, seed)
}

// FaultSweepStudy measures the robustness surcharge: SORT-OTN and
// CONNECTED-COMPONENTS on an (n×n)-OTN under 0..maxFaults random dead
// tree edges, reporting correctness, slowdown and the bit-times
// charged for the orthogonal-tree detours.
func FaultSweepStudy(n, maxFaults int, seed uint64) (*FaultSweep, error) {
	return analysis.FaultSweepStudy(n, maxFaults, seed)
}

// NewFaultSchedule returns an empty fault-arrival schedule (chain Add
// then Sort onto it). Supervising under an empty schedule is
// guaranteed bit-identical to running the program directly.
func NewFaultSchedule(seed uint64) *FaultSchedule { return fault.NewSchedule(seed) }

// RandomFaultSchedule returns a schedule of n distinct dead-edge
// arrivals scattered over the trees of a (k×k)-OTN, with strike times
// drawn uniformly from (0, horizon], derived entirely from the seed.
func RandomFaultSchedule(k, n int, horizon Time, seed uint64) *FaultSchedule {
	return fault.RandomSchedule(k, n, horizon, seed)
}

// SortProgram decomposes SORT-OTN over xs into a RecoveryProgram for
// Supervise. The returned func reads the sorted output once the
// program has completed.
func SortProgram(m *Machine, xs []int64) (*RecoveryProgram, func() []int64, error) {
	return resilience.SortProgram(m, xs)
}

// ComponentsProgram decomposes CONNECTED-COMPONENTS of g into a
// RecoveryProgram for Supervise. The returned func reads the vertex
// labels once the program has completed.
func ComponentsProgram(m *Machine, g *Graph) (*RecoveryProgram, func() []int64, error) {
	return resilience.ComponentsProgram(m, g)
}

// Supervise runs prog on m under the checkpoint/rollback recovery
// supervisor: fault events from sched are merged into the live plan
// as simulated time passes them, detected failures roll the machine
// back to the last consistent checkpoint and replay on the degraded
// network, and every recovery is itemized in m's Health ledger. It
// returns the simulated completion time; the error is non-nil when
// the retry budget was exhausted (the machine keeps its sticky error).
func Supervise(m *Machine, sched *FaultSchedule, prog *RecoveryProgram, opt RecoveryOptions) (Time, error) {
	return resilience.Run(m, sched, prog, 0, opt)
}

// SamePartition reports whether two component labelings induce the
// same partition of the vertices (label values themselves may differ).
func SamePartition(a, b []int64) bool { return graph.SamePartition(a, b) }

// RecoverySweepStudy measures the dynamic-fault surcharge: supervised
// SORT-OTN and CONNECTED-COMPONENTS on an (n×n)-OTN under
// 0..maxEvents mid-run dead-edge arrivals, reporting correctness,
// overhead and the itemized checkpoint/rollback costs. The zero-event
// points are bit-identical to the healthy baselines.
func RecoverySweepStudy(n, maxEvents int, seed uint64) (*RecoverySweep, error) {
	return analysis.RecoverySweepStudy(n, maxEvents, seed)
}

// IncrementalStudy sweeps batch size × grid size on the packed
// incremental labeling engine: each cell streams `steps` pixel-flip
// batches, checks the maintained labels bit-identical to a full packed
// recompute after every batch, and reports the mean simulated cost of
// both strategies and their ratio.
func IncrementalStudy(ns, batches []int, steps int, seed uint64) (*IncrementalSweep, error) {
	return analysis.IncrementalStudy(ns, batches, steps, seed)
}

// Sort runs procedure SORT-OTN (Section II-B): the K numbers xs enter
// the input ports of the (K×K)-OTN and leave sorted at the output
// ports in Θ(log² K) bit-times.
func Sort(m *Machine, xs []int64) ([]int64, Time) {
	return sorting.SortOTN(m, xs, 0)
}

// SortPipelined streams batches of sort problems through one OTN
// (Section VIII): after the pipeline fills, a sorted batch emerges
// every Θ(log N) bit-times.
func SortPipelined(m *Machine, batches [][]int64) []sorting.PipelineResult {
	return sorting.SortOTNPipelined(m, batches, m.WordTime())
}

// BitonicSort sorts N = K² numbers held one per base processor
// (Section IV) in Θ(√N log N) bit-times.
func BitonicSort(m *Machine, xs []int64) ([]int64, Time) {
	return sorting.BitonicSortOTN(m, xs, 0)
}

// SortOTC runs procedure SORT-OTC (Section VI) on a native OTC.
func SortOTC(m *OTC, xs []int64) ([]int64, Time) {
	return otc.SortOTC(m, xs, 0)
}

// BitonicMerge runs procedure BITONICMERGE-OTN (Section IV) on a
// bitonic input held row-major in the base, merging it ascending in
// Θ(√N log N) bit-times.
func BitonicMerge(m *Machine, xs []int64) ([]int64, Time) {
	return sorting.BitonicMergeOTN(m, xs, 0)
}

// MakeBitonic arranges values into a bitonic sequence (ascending then
// descending run), the precondition of BitonicMerge.
func MakeBitonic(xs []int64) []int64 { return sorting.MakeBitonic(xs) }

// LoadMatrix stores a matrix into register reg of the base.
func LoadMatrix(m *Machine, reg Reg, b [][]int64) { matrix.LoadMatrix(m, reg, b) }

// VectorMatrixMult computes x·B against the matrix resident in bReg
// (Section III-A), in Θ(log² N) bit-times.
func VectorMatrixMult(m *Machine, x []int64, bReg Reg) ([]int64, Time) {
	return matrix.VectorMatrixMult(m, x, bReg, 0)
}

// MatMul computes A·B by the paper's pipelined vector-matrix scheme;
// successive result rows emerge Θ(log N) apart.
func MatMul(m *Machine, a, b [][]int64) ([][]int64, []Time) {
	return matrix.MatMulPipelined(m, a, b, 0)
}

// NewMatMulMachine builds the Table II machine for n×n products: a
// mesh of trees over an n²-wide base.
func NewMatMulMachine(n int) (*Machine, error) {
	return matrix.BigMachine(n, vlsi.LogDelay{})
}

// BoolMatMul multiplies two n×n Boolean matrices on a machine from
// NewMatMulMachine in Θ(log² n) bit-times (Table II).
func BoolMatMul(m *Machine, a, b [][]int64) ([][]int64, Time) {
	return matrix.BigMatMul(m, a, b, true, 0)
}

// IntMatMul is BoolMatMul over the integers.
func IntMatMul(m *Machine, a, b [][]int64) ([][]int64, Time) {
	return matrix.BigMatMul(m, a, b, false, 0)
}

// LoadGraph stores a graph's adjacency matrix into the base.
func LoadGraph(m *Machine, g *Graph) { graph.LoadGraph(m, g) }

// ConnectedComponents labels the vertices of the resident graph
// (Section III / Table III) in Θ(log⁴ N) bit-times.
func ConnectedComponents(m *Machine) ([]int64, Time) {
	return graph.ConnectedComponents(m, 0)
}

// LoadWeights stores a symmetric weight matrix into the base
// (entries ≤ 0 mean "no edge").
func LoadWeights(m *Machine, w [][]int64) { graph.LoadWeights(m, w) }

// MinSpanningTree computes the minimum spanning forest of the
// resident weighted graph in Θ(log⁴ N) bit-times.
func MinSpanningTree(m *Machine) ([]Edge, Time) {
	return graph.MinSpanningTree(m, 0)
}

// TransitiveClosure computes the reflexive-transitive closure of an
// n-vertex graph on a machine from NewMatMulMachine(n), by ⌈log n⌉
// Boolean squarings — Θ(log³ n) bit-times.
func TransitiveClosure(m *Machine, adj [][]int64) ([][]int64, Time) {
	return graph.TransitiveClosure(m, adj, 0)
}

// ComponentsFromClosure labels vertices by minimum reachable vertex
// given a closure matrix.
func ComponentsFromClosure(closure [][]int64) []int64 {
	return graph.ComponentsFromClosure(closure)
}

// DFT computes the N = K²-point discrete Fourier transform
// (Section IV-B) in Θ(√N log N) bit-times.
func DFT(m *Machine, xs []complex128) ([]complex128, Time) {
	return dft.DFT(m, xs, 0)
}

// MultiplyIntegers multiplies two long non-negative integers on a
// (K×K)-OTN (operands up to K·4 bits) — the Capello–Steiglitz
// application of the orthogonal forest the introduction cites [8].
func MultiplyIntegers(m *Machine, x, y *big.Int) (*big.Int, Time) {
	return intmul.Multiply(m, x, y, 0)
}

// Table1 regenerates Table I (sorting, log-delay model) at the given
// problem sizes (even powers of two).
func Table1(ns []int) (*Experiment, error) {
	return analysis.Table1Sorting(ns, vlsi.LogDelay{})
}

// Table2 regenerates Table II (Boolean matrix multiplication).
func Table2(ns []int) (*Experiment, error) { return analysis.Table2BoolMatMul(ns) }

// Table3 regenerates Table III (connected components).
func Table3(ns []int) (*Experiment, error) { return analysis.Table3Components(ns) }

// PackedStudy extends Table III past the scalar sweep's reach:
// connected components on the bit-packed Boolean engine (plain and
// Thompson-scaled) versus the mesh baseline, at sizes up to N=1024.
func PackedStudy(ns []int) (*Experiment, error) { return analysis.PackedScalingStudy(ns) }

// Table4 regenerates Table IV (sorting, constant-delay model).
func Table4(ns []int) (*Experiment, error) {
	return analysis.Table1Sorting(ns, vlsi.ConstantDelay{})
}

// MSTStudy regenerates the minimum-spanning-tree prose claims.
func MSTStudy(ns []int) (*Experiment, error) { return analysis.MSTExperiment(ns) }

// MatMul3DStudy compares the Table II two-dimensional arrangement
// against the three-dimensional mesh of trees of Section VII-B.
func MatMul3DStudy(ns []int) (*Experiment, error) { return analysis.MatMul3DStudy(ns) }

// FigureAreas regenerates the layout-area comparison behind
// Figs. 1–3.
func FigureAreas(ks []int) (*Experiment, error) { return analysis.FigureAreas(ks) }

// PipelineStudy measures the Section VIII pipelining claim on an
// (n×n)-OTN over the given number of batches, returning the single-
// problem latency and the steady-state inter-batch output spacing.
func PipelineStudy(n, batches int) (latency, steady Time, err error) {
	return analysis.PipelineExperiment(n, batches)
}

// BuildOTNLayout places a full (k×k)-OTN chip (Fig. 1) for rendering.
func BuildOTNLayout(k, wordBits int) (*layout.OTN, error) { return layout.BuildOTN(k, wordBits) }

// BuildOTCLayout places a full (k×k)-OTC chip (Fig. 3).
func BuildOTCLayout(k, l, wordBits int) (*layout.OTC, error) {
	return layout.BuildOTC(k, l, wordBits)
}

// BuildCycleLayout places one OTC cycle (Fig. 2).
func BuildCycleLayout(l, wordBits int) (*layout.Cycle, error) {
	return layout.BuildCycle(l, wordBits)
}
