// Package fault is the deterministic fault-injection subsystem of the
// OTN/OTC simulator. A Plan describes a set of hardware faults —
// dead tree edges, dead internal processors (IPs), stuck base
// processors (BPs) and a transient bit-flip rate on combining ascents
// — and composes with any machine built over vlsi.Config. Every
// random choice is driven by the same explicit xorshift64* generator
// as internal/workload, so a (seed, plan) pair reproduces the exact
// fault schedule and therefore the exact simulation, bit-time for
// bit-time.
//
// The physical story follows the orthogonal-trees redundancy argument
// (cf. the OTIS fault-tolerance literature in PAPERS.md): every BP
// sits on both a row tree and a column tree, so a single cut tree
// edge never isolates a BP — the routing layers reroute through the
// orthogonal trees at a measurable A·T² cost, and the per-machine
// Health report accounts for every retry and reroute.
//
// Fault classes:
//
//   - Dead edge: the bit-serial link between heap node Node and its
//     parent carries nothing; the whole subtree under Node is cut off
//     from the root.
//   - Dead IP: heap node Node neither combines nor forwards — it cuts
//     its own subtree (and, at the root, the entire tree).
//   - Stuck BP: the base processor's register file is frozen; writes
//     are dropped. (Stuck BPs corrupt results by design — they model
//     the yield problem degraded routing cannot mask.)
//   - Transient: each combining ascent is corrupted with probability
//     TransientRate. Words carry a parity/checksum inside the existing
//     w-bit frame, so detection is free; recovery is a bounded retry
//     (NACK broadcast + re-ascent) whose bit-times are charged in
//     full.
package fault

import (
	"fmt"
	"math"

	"repro/internal/vlsi"
	"repro/internal/workload"
)

// DefaultMaxRetries bounds the parity-retry loop of a combining
// ascent before the router gives up and reports a fault storm.
const DefaultMaxRetries = 3

// Site names one tree node of one tree of a (K×K) machine: the tree
// (row or column, by index) and the heap node within it (node 1 is
// the root, node v has children 2v and 2v+1, leaf j is node K+j).
type Site struct {
	// Row selects a row tree when true, a column tree when false.
	Row bool
	// Tree is the row or column index in [0, K).
	Tree int
	// Node is the heap node index. For a dead edge it names the child
	// end of the dead link (so Node ≥ 2); for a dead IP it names the
	// internal processor (1 ≤ Node < K).
	Node int
}

// String renders the site the way traces and errors print it.
func (s Site) String() string {
	axis := "col"
	if s.Row {
		axis = "row"
	}
	return fmt.Sprintf("%s(%d).node(%d)", axis, s.Tree, s.Node)
}

// BP names one base processor of the K×K base.
type BP struct {
	I, J int
}

// Plan is a complete, machine-independent fault description. The zero
// value (or New with no faults added) is the healthy plan: injecting
// it is guaranteed to leave every code path and every timing
// bit-identical to a machine that never saw a plan.
type Plan struct {
	// Seed drives every pseudo-random decision derived from the plan
	// (transient-corruption schedule, Random site selection).
	Seed uint64
	// DeadEdges lists cut parent links.
	DeadEdges []Site
	// DeadIPs lists dead internal processors.
	DeadIPs []Site
	// StuckBPs lists frozen base processors.
	StuckBPs []BP
	// TransientRate is the per-ascent probability of a transient
	// corruption caught by the parity check, in [0, 1).
	TransientRate float64
	// MaxRetries bounds the parity-retry loop; 0 means
	// DefaultMaxRetries.
	MaxRetries int
}

// New returns an empty (healthy) plan with the given seed.
func New(seed uint64) *Plan { return &Plan{Seed: seed} }

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		(len(p.DeadEdges) == 0 && len(p.DeadIPs) == 0 &&
			len(p.StuckBPs) == 0 && p.TransientRate == 0)
}

// KillEdge adds a dead edge (the link between node and its parent)
// and returns the plan for chaining.
func (p *Plan) KillEdge(row bool, tree, node int) *Plan {
	p.DeadEdges = append(p.DeadEdges, Site{Row: row, Tree: tree, Node: node})
	return p
}

// KillIP adds a dead internal processor.
func (p *Plan) KillIP(row bool, tree, node int) *Plan {
	p.DeadIPs = append(p.DeadIPs, Site{Row: row, Tree: tree, Node: node})
	return p
}

// StickBP freezes the register file of BP(i, j).
func (p *Plan) StickBP(i, j int) *Plan {
	p.StuckBPs = append(p.StuckBPs, BP{I: i, J: j})
	return p
}

// WithTransients sets the per-ascent corruption rate.
func (p *Plan) WithTransients(rate float64) *Plan {
	p.TransientRate = rate
	return p
}

// Retries returns the effective retry bound.
func (p *Plan) Retries() int {
	if p == nil || p.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// Validate checks every site against a machine with k trees per axis
// of treeK leaves each (treeK is k for the native OTN; emulated
// machines pass the physical tree's leaf count).
func (p *Plan) Validate(k, treeK int) error {
	if p == nil {
		return nil
	}
	for _, s := range p.DeadEdges {
		if s.Tree < 0 || s.Tree >= k {
			return &PlanError{Site: s, Reason: fmt.Sprintf("tree index out of range [0,%d)", k)}
		}
		if s.Node < 2 || s.Node >= 2*treeK {
			return &PlanError{Site: s, Reason: fmt.Sprintf("edge node out of range [2,%d)", 2*treeK)}
		}
	}
	for _, s := range p.DeadIPs {
		if s.Tree < 0 || s.Tree >= k {
			return &PlanError{Site: s, Reason: fmt.Sprintf("tree index out of range [0,%d)", k)}
		}
		if s.Node < 1 || s.Node >= treeK {
			return &PlanError{Site: s, Reason: fmt.Sprintf("IP node out of range [1,%d)", treeK)}
		}
	}
	for _, b := range p.StuckBPs {
		if b.I < 0 || b.I >= k || b.J < 0 || b.J >= k {
			return &PlanError{Reason: fmt.Sprintf("stuck BP(%d,%d) outside the %d×%d base", b.I, b.J, k, k)}
		}
	}
	if p.TransientRate < 0 || p.TransientRate >= 1 {
		return &PlanError{Reason: fmt.Sprintf("transient rate %v outside [0,1)", p.TransientRate)}
	}
	return nil
}

// Random returns a plan of nFaults distinct dead tree edges scattered
// uniformly over the 2k trees of a (k×k)-OTN, derived entirely from
// the seed. The same (k, nFaults, seed) triple always yields the same
// plan. nFaults is clamped to the 2k(2k−2) distinct edges a
// (k×k)-OTN has — asking for more cannot produce more distinct sites,
// only a rejection-sampling livelock.
func Random(k, nFaults int, seed uint64) *Plan {
	if edges := 2 * k * (2*k - 2); nFaults > edges {
		nFaults = edges
	}
	p := New(seed)
	rng := workload.NewRNG(seed)
	seen := make(map[Site]bool, nFaults)
	for len(p.DeadEdges) < nFaults {
		s := Site{
			Row:  rng.Intn(2) == 0,
			Tree: rng.Intn(k),
			// Edges are identified by their child node, in [2, 2k).
			Node: 2 + rng.Intn(2*k-2),
		}
		if seen[s] {
			continue
		}
		seen[s] = true
		p.DeadEdges = append(p.DeadEdges, s)
	}
	return p
}

// Union returns a new plan combining p's faults with q's,
// deduplicating sites. The seed, in-order site layout and retry bound
// come from p (the live plan); q's transient rate and retry bound win
// only where larger. Union is how a mid-run arrival merges into a
// machine's live plan without disturbing what was already injected.
func (p *Plan) Union(q *Plan) *Plan {
	out := New(p.Seed)
	out.TransientRate = p.TransientRate
	if q.TransientRate > out.TransientRate {
		out.TransientRate = q.TransientRate
	}
	out.MaxRetries = p.MaxRetries
	if q.MaxRetries > out.MaxRetries {
		out.MaxRetries = q.MaxRetries
	}
	seenSite := make(map[Site]bool, len(p.DeadEdges)+len(q.DeadEdges))
	for _, s := range append(append([]Site{}, p.DeadEdges...), q.DeadEdges...) {
		if !seenSite[s] {
			seenSite[s] = true
			out.DeadEdges = append(out.DeadEdges, s)
		}
	}
	seenIP := make(map[Site]bool, len(p.DeadIPs)+len(q.DeadIPs))
	for _, s := range append(append([]Site{}, p.DeadIPs...), q.DeadIPs...) {
		if !seenIP[s] {
			seenIP[s] = true
			out.DeadIPs = append(out.DeadIPs, s)
		}
	}
	seenBP := make(map[BP]bool, len(p.StuckBPs)+len(q.StuckBPs))
	for _, b := range append(append([]BP{}, p.StuckBPs...), q.StuckBPs...) {
		if !seenBP[b] {
			seenBP[b] = true
			out.StuckBPs = append(out.StuckBPs, b)
		}
	}
	return out
}

// TreeFaults is the per-tree projection of a plan: what one row or
// column tree's router (and its goroutine twin in
// internal/concurrent) needs to know. A nil *TreeFaults means the
// tree is healthy.
type TreeFaults struct {
	k          int
	deadUp     []bool // parent edge of node v is dead
	deadIP     []bool // internal processor v is dead
	rate       float64
	maxRetries int
	key        uint64
	health     *Health
}

// ForTree projects the plan onto one tree of treeK leaves. It returns
// nil when the tree has no dead hardware and the plan has no
// transient rate — the contract that keeps the healthy fast paths
// byte-identical. All views share the machine's Health.
func (p *Plan) ForTree(row bool, tree, treeK int, h *Health) *TreeFaults {
	if p.Empty() {
		return nil
	}
	f := &TreeFaults{
		k:          treeK,
		rate:       p.TransientRate,
		maxRetries: p.Retries(),
		key:        treeKey(p.Seed, row, tree),
		health:     h,
	}
	any := false
	for _, s := range p.DeadEdges {
		if s.Row == row && s.Tree == tree && s.Node >= 2 && s.Node < 2*treeK {
			f.ensure()
			f.deadUp[s.Node] = true
			any = true
		}
	}
	for _, s := range p.DeadIPs {
		if s.Row == row && s.Tree == tree && s.Node >= 1 && s.Node < treeK {
			f.ensure()
			f.deadIP[s.Node] = true
			// A dead IP forwards nothing: its parent link and both
			// child links go silent.
			if s.Node >= 2 {
				f.deadUp[s.Node] = true
			}
			f.deadUp[2*s.Node] = true
			f.deadUp[2*s.Node+1] = true
			any = true
		}
	}
	if !any && f.rate == 0 {
		return nil
	}
	return f
}

func (f *TreeFaults) ensure() {
	if f.deadUp == nil {
		f.deadUp = make([]bool, 2*f.k)
		f.deadIP = make([]bool, 2*f.k)
	}
}

// treeKey mixes the plan seed with the tree identity so every tree
// draws an independent (but reproducible) transient schedule.
func treeKey(seed uint64, row bool, tree int) uint64 {
	x := seed ^ 0x9E3779B97F4A7C15
	if row {
		x ^= 0xA5A5A5A5A5A5A5A5
	}
	x += uint64(tree) * 0xBF58476D1CE4E5B9
	return mix(x)
}

// mix is the splitmix64 finalizer: a cheap bijective hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Dead reports whether the view cuts any hardware (as opposed to a
// transient-only view).
func (f *TreeFaults) Dead() bool { return f != nil && f.deadUp != nil }

// HasTransients reports whether the view carries a nonzero transient
// corruption rate. Routers use this to decide whether a traversal is
// schedulable: transient draws consume the monotone ascent counter,
// so a traversal under a transient view is never replayed from a
// recording.
func (f *TreeFaults) HasTransients() bool { return f != nil && f.rate != 0 }

// Fingerprint hashes the complete fault view — topology, rate, retry
// budget, and the per-tree corruption key — into a nonzero value that
// is equal exactly when two views would produce identical routing and
// corruption behaviour. The nil view (healthy) hashes to 0, so a
// fingerprint doubles as a "has any view" flag.
func (f *TreeFaults) Fingerprint() uint64 {
	if f == nil {
		return 0
	}
	h := mix(uint64(f.k)<<32 ^ uint64(f.maxRetries)<<1 ^ 1)
	h = mix(h ^ math.Float64bits(f.rate))
	h = mix(h ^ f.key)
	for v, d := range f.deadUp {
		if d {
			h = mix(h ^ uint64(v)<<1 ^ 0x5D)
		}
	}
	for v, d := range f.deadIP {
		if d {
			h = mix(h ^ uint64(v)<<1 ^ 0x1F)
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// EdgeDead reports whether the link between node v and its parent is
// dead.
func (f *TreeFaults) EdgeDead(v int) bool {
	return f != nil && f.deadUp != nil && v >= 0 && v < len(f.deadUp) && f.deadUp[v]
}

// IPDead reports whether internal processor v is dead.
func (f *TreeFaults) IPDead(v int) bool {
	return f != nil && f.deadIP != nil && v >= 0 && v < len(f.deadIP) && f.deadIP[v]
}

// MaxRetries returns the parity-retry bound.
func (f *TreeFaults) MaxRetries() int {
	if f == nil || f.maxRetries <= 0 {
		return DefaultMaxRetries
	}
	return f.maxRetries
}

// CorruptAscent decides — deterministically, from the plan seed, the
// tree identity and the ascent's sequence number — whether combining
// ascent op of this tree suffers a transient corruption. The decision
// depends on nothing else, so a simulation replay sees the identical
// fault schedule regardless of call interleaving across trees.
func (f *TreeFaults) CorruptAscent(op uint64) bool {
	if f == nil || f.rate == 0 {
		return false
	}
	x := mix(f.key + op*0x2545F4914F6CDD1D)
	return float64(x>>11)/(1<<53) < f.rate
}

// RecordTransient notes one detected corruption.
func (f *TreeFaults) RecordTransient() {
	if f != nil && f.health != nil {
		f.health.Transients++
	}
}

// RecordRetry notes one parity retry and the bit-times it added.
func (f *TreeFaults) RecordRetry(added vlsi.Time) {
	if f != nil && f.health != nil {
		f.health.Retries++
		f.health.RetryLatency += added
	}
}

// RecordFailure notes an unrecoverable fault outcome.
func (f *TreeFaults) RecordFailure(err error) {
	if f != nil && f.health != nil {
		f.health.Fail(err)
	}
}
