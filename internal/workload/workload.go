// Package workload generates the deterministic inputs the benchmark
// harness feeds to every network: integer sequences to sort, Boolean
// and weighted matrices to multiply, and random graphs for the
// connected-components and spanning-tree experiments.
//
// All generators are driven by an explicit xorshift64* state so every
// experiment is reproducible from its seed, independent of Go
// runtime or library version.
package workload

import "repro/internal/bits"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*). The zero value is not valid; use NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. A zero seed
// is remapped to a fixed non-zero constant because the xorshift state
// must never be zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// State returns the generator's internal state, for durable snapshots.
// SetState(State()) resumes the exact stream.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator state with a value previously
// returned by State. A zero state is remapped as in NewRNG.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := step(r.state)
	r.state = x
	return x * xorshiftMul
}

// Intn returns a pseudo-random int in [0, n). It panics if n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Ints returns n pseudo-random values in [0, bound).
func (r *RNG) Ints(n, bound int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Intn(bound))
	}
	return out
}

// Perm returns a pseudo-random permutation of 0..n-1 (Fisher–Yates).
// Because the values are distinct it matches the precondition of the
// paper's basic SORT-OTN ("the numbers are all distinct").
func (r *RNG) Perm(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// BoolMatrix returns an n×n 0/1 matrix where each entry is 1 with
// probability p.
func (r *RNG) BoolMatrix(n int, p float64) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if r.Float64() < p {
				m[i][j] = 1
			}
		}
	}
	return m
}

// IntMatrix returns an n×n matrix of values in [0, bound).
func (r *RNG) IntMatrix(n, bound int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = r.Ints(n, bound)
	}
	return m
}

// Graph is an undirected graph on vertices 0..N-1 in the adjacency
// representation the paper's algorithms use.
type Graph struct {
	N   int
	Adj [][]bool
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{N: n, Adj: adj}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.Adj[u][v] = true
	g.Adj[v][u] = true
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.N)
	for i := range g.Adj {
		copy(c.Adj[i], g.Adj[i])
	}
	return c
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool { return g.Adj[u][v] }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	c := 0
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if g.Adj[i][j] {
				c++
			}
		}
	}
	return c
}

// Gnp returns an Erdős–Rényi G(n, p) graph.
func (r *RNG) Gnp(n int, p float64) *Graph {
	g := NewGraph(n)
	r.gnpEach(n, p, g.AddEdge)
	return g
}

// GnpBits draws the same G(n, p) graph as Gnp straight into a packed
// adjacency matrix, skipping the n×n []bool rows, and leaves the RNG
// in the same state.
func (r *RNG) GnpBits(n int, p float64) *bits.Matrix {
	m := bits.NewMatrix(n)
	r.gnpEach(n, p, func(i, j int) {
		m.Set(i, j)
		m.Set(j, i)
	})
	return m
}

// ComponentsGraph returns a graph on n vertices built from k dense
// clusters with no inter-cluster edges, giving a known component
// structure for tests.
func (r *RNG) ComponentsGraph(n, k int) *Graph {
	if k < 1 {
		k = 1
	}
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		c := v % k
		// Link v to a random earlier vertex of the same cluster so
		// each cluster is connected.
		for u := c; u < v; u += k {
			if r.Float64() < 0.5 || u+k >= v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// GridGraph returns the r×c grid graph (rc vertices, vertices joined
// to their horizontal and vertical neighbours) — the planar,
// large-diameter stress case for the component algorithms.
func GridGraph(r, c int) *Graph {
	g := NewGraph(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.AddEdge(v, v+1)
			}
			if i+1 < r {
				g.AddEdge(v, v+c)
			}
		}
	}
	return g
}

// CycleGraph returns the n-cycle.
func CycleGraph(n int) *Graph {
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// BinaryTreeGraph returns the complete binary tree on n vertices
// (heap numbering) — depth Θ(log n), the opposite stress case to the
// path.
func BinaryTreeGraph(n int) *Graph {
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, (v-1)/2)
	}
	return g
}

// WeightMatrix returns a symmetric n×n weight matrix for a complete
// graph with distinct weights in [1, n²], suitable for the MST
// experiments (distinct weights make the MST unique, which simplifies
// validation — the paper makes the same assumption implicitly by
// tie-breaking on edge identity).
func (r *RNG) WeightMatrix(n int) [][]int64 {
	// Distinct weights: a random permutation of 1..n(n-1)/2 scattered
	// over the upper triangle.
	m := n * (n - 1) / 2
	perm := r.Perm(m)
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w[i][j] = perm[idx] + 1
			w[j][i] = w[i][j]
			idx++
		}
	}
	return w
}

// ComplexSignal returns n pseudo-random complex samples with real and
// imaginary parts in [-1, 1), for the DFT experiments.
func (r *RNG) ComplexSignal(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
	return out
}
