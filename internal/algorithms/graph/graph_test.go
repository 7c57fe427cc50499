package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func machine(t testing.TB, n int) *core.Machine {
	t.Helper()
	m, err := core.NewDefault(n, n*n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPackUnpackEdge(t *testing.T) {
	f := func(wRaw uint16, uRaw, vRaw uint8) bool {
		n := 256
		w := int64(wRaw) + 1
		u, v := int(uRaw), int(vRaw)
		p := packEdge(n, w, u, v)
		w2, u2, v2 := unpackEdge(n, p)
		return w2 == w && u2 == u && v2 == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Packing preserves weight order first.
	if packEdge(8, 3, 7, 7) >= packEdge(8, 4, 0, 0) {
		t.Error("packing does not order by weight first")
	}
}

func TestSamePartition(t *testing.T) {
	if !SamePartition([]int64{0, 0, 2, 2}, []int64{5, 5, 9, 9}) {
		t.Error("equivalent partitions rejected")
	}
	if SamePartition([]int64{0, 0, 2, 2}, []int64{5, 5, 5, 9}) {
		t.Error("coarser partition accepted")
	}
	if SamePartition([]int64{0, 0, 1, 1}, []int64{5, 9, 5, 9}) {
		t.Error("crossed partition accepted")
	}
	if SamePartition([]int64{0}, []int64{0, 1}) {
		t.Error("length mismatch accepted")
	}
}

func TestRefComponents(t *testing.T) {
	g := workload.NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	labels := RefComponents(g)
	want := []int64{0, 0, 2, 3, 3}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("RefComponents = %v", labels)
		}
	}
}

func TestConnectedComponentsSmall(t *testing.T) {
	// Path 0-1-2-3 plus isolated 4..7.
	g := workload.NewGraph(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	m := machine(t, 8)
	LoadGraph(m, g)
	labels, done := ConnectedComponents(m, 0)
	if !SamePartition(labels, RefComponents(g)) {
		t.Errorf("labels %v disagree with reference %v", labels, RefComponents(g))
	}
	if done <= 0 {
		t.Error("components took no time")
	}
}

func TestConnectedComponentsShapes(t *testing.T) {
	cases := []struct {
		name  string
		build func() *workload.Graph
	}{
		{"empty", func() *workload.Graph { return workload.NewGraph(16) }},
		{"complete", func() *workload.Graph {
			g := workload.NewGraph(16)
			for i := 0; i < 16; i++ {
				for j := i + 1; j < 16; j++ {
					g.AddEdge(i, j)
				}
			}
			return g
		}},
		{"two-cliques", func() *workload.Graph { return workload.NewRNG(1).ComponentsGraph(16, 2) }},
		{"five-clusters", func() *workload.Graph { return workload.NewRNG(2).ComponentsGraph(20, 5) }},
		{"long-path", func() *workload.Graph {
			g := workload.NewGraph(32)
			for i := 0; i+1 < 32; i++ {
				g.AddEdge(i, i+1)
			}
			return g
		}},
		{"descending-path", func() *workload.Graph {
			// Adversarial for hook-to-minimum: labels strictly
			// decrease along the path.
			g := workload.NewGraph(32)
			for i := 31; i > 0; i-- {
				g.AddEdge(i, i-1)
			}
			return g
		}},
		{"star", func() *workload.Graph {
			g := workload.NewGraph(16)
			for i := 1; i < 16; i++ {
				g.AddEdge(15, i)
			}
			return g
		}},
	}
	for _, c := range cases {
		g := c.build()
		n := 1 << vlsi.Log2Ceil(g.N)
		// Pad to a power-of-two machine with isolated vertices.
		padded := workload.NewGraph(n)
		for i := 0; i < g.N; i++ {
			for j := i + 1; j < g.N; j++ {
				if g.Adj[i][j] {
					padded.AddEdge(i, j)
				}
			}
		}
		m := machine(t, n)
		LoadGraph(m, padded)
		labels, _ := ConnectedComponents(m, 0)
		if !SamePartition(labels, RefComponents(padded)) {
			t.Errorf("%s: wrong partition\n got %v\nwant %v", c.name, labels, RefComponents(padded))
		}
	}
}

func TestConnectedComponentsRandom(t *testing.T) {
	for _, p := range []float64{0.02, 0.08, 0.3} {
		for _, n := range []int{16, 32, 64} {
			g := workload.NewRNG(uint64(n)*100+uint64(p*1000)).Gnp(n, p)
			m := machine(t, n)
			LoadGraph(m, g)
			labels, _ := ConnectedComponents(m, 0)
			if !SamePartition(labels, RefComponents(g)) {
				t.Errorf("n=%d p=%v: wrong partition", n, p)
			}
		}
	}
}

// TestComponentsTimeShape: Θ(log⁴ N) — polylog in N, with the
// measured exponent against log N in a generous band around 4.
func TestComponentsTimeShape(t *testing.T) {
	var logs, times []float64
	for _, n := range []int{16, 32, 64, 128} {
		g := workload.NewRNG(uint64(n)).Gnp(n, 2.0/float64(n))
		m := machine(t, n)
		LoadGraph(m, g)
		_, done := ConnectedComponents(m, 0)
		logs = append(logs, float64(vlsi.Log2Ceil(n)))
		times = append(times, float64(done))
	}
	e := vlsi.GrowthExponent(logs, times)
	if e < 1.5 || e > 5.5 {
		t.Errorf("components time grows as log^%.2f N; want ~log⁴", e)
	}
	// Polylog sanity: far below N·w at N=128.
	if times[len(times)-1] > 128*float64(vlsi.WordBitsFor(128*128))*8 {
		t.Errorf("components at N=128 took %v; not polylog", times[len(times)-1])
	}
}

func TestLoadValidation(t *testing.T) {
	m := machine(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("wrong-size graph accepted")
		}
	}()
	LoadGraph(m, workload.NewGraph(5))
}

func TestMSTSmallKnown(t *testing.T) {
	// Square 0-1-2-3 with a heavy diagonal: MST must avoid weight 9.
	w := make([][]int64, 4)
	for i := range w {
		w[i] = make([]int64, 4)
	}
	set := func(a, b int, x int64) { w[a][b], w[b][a] = x, x }
	set(0, 1, 1)
	set(1, 2, 2)
	set(2, 3, 3)
	set(0, 3, 9)
	m := machine(t, 4)
	LoadWeights(m, w)
	edges, done := MinSpanningTree(m, 0)
	if len(edges) != 3 {
		t.Fatalf("MST has %d edges, want 3: %v", len(edges), edges)
	}
	var total int64
	for _, e := range edges {
		total += e.W
	}
	if total != 6 {
		t.Errorf("MST weight %d, want 6 (edges %v)", total, edges)
	}
	if done <= 0 {
		t.Error("MST took no time")
	}
}

func TestMSTRandomComplete(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		w := workload.NewRNG(uint64(n) + 5).WeightMatrix(n)
		m := machine(t, n)
		LoadWeights(m, w)
		edges, _ := MinSpanningTree(m, 0)
		wantW, wantE := RefMST(w)
		if len(edges) != wantE {
			t.Fatalf("n=%d: %d edges, want %d", n, len(edges), wantE)
		}
		var total int64
		for _, e := range edges {
			total += e.W
		}
		if total != wantW {
			t.Errorf("n=%d: weight %d, want %d", n, total, wantW)
		}
	}
}

func TestMSTForest(t *testing.T) {
	// Two components: MST is a spanning forest.
	n := 8
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	set := func(a, b int, x int64) { w[a][b], w[b][a] = x, x }
	// Component {0..3}: path; component {4..7}: cycle.
	set(0, 1, 5)
	set(1, 2, 4)
	set(2, 3, 3)
	set(4, 5, 2)
	set(5, 6, 1)
	set(6, 7, 7)
	set(7, 4, 6)
	m := machine(t, n)
	LoadWeights(m, w)
	edges, _ := MinSpanningTree(m, 0)
	wantW, wantE := RefMST(w)
	var total int64
	for _, e := range edges {
		total += e.W
	}
	if len(edges) != wantE || total != wantW {
		t.Errorf("forest: %d edges weight %d, want %d / %d (%v)", len(edges), total, wantE, wantW, edges)
	}
}

func TestMSTQuick(t *testing.T) {
	f := func(seed uint64) bool {
		n := 8
		w := workload.NewRNG(seed).WeightMatrix(n)
		// Delete some edges to vary topology.
		rng := workload.NewRNG(seed + 1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					w[i][j], w[j][i] = 0, 0
				}
			}
		}
		m, err := core.NewDefault(n, n*n)
		if err != nil {
			return false
		}
		LoadWeights(m, w)
		edges, _ := MinSpanningTree(m, 0)
		wantW, wantE := RefMST(w)
		var total int64
		for _, e := range edges {
			total += e.W
		}
		return len(edges) == wantE && total == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMSTTimeShape: Θ(log⁴ N), like components.
func TestMSTTimeShape(t *testing.T) {
	var logs, times []float64
	for _, n := range []int{16, 32, 64} {
		w := workload.NewRNG(uint64(n)).WeightMatrix(n)
		m := machine(t, n)
		LoadWeights(m, w)
		_, done := MinSpanningTree(m, 0)
		logs = append(logs, float64(vlsi.Log2Ceil(n)))
		times = append(times, float64(done))
	}
	e := vlsi.GrowthExponent(logs, times)
	if e < 1.5 || e > 5.5 {
		t.Errorf("MST time grows as log^%.2f N; want ~log⁴", e)
	}
}

// TestComponentsStructuredFamilies runs the OTN algorithm over the
// structured graph families (grid, cycle, complete binary tree) that
// stress hooking and pointer jumping differently from G(n,p).
func TestComponentsStructuredFamilies(t *testing.T) {
	families := map[string]*workload.Graph{
		"grid4x8": workload.GridGraph(4, 8),
		"cycle32": workload.CycleGraph(32),
		"bintree": workload.BinaryTreeGraph(31),
		"twoGrids": func() *workload.Graph {
			g := workload.NewGraph(32)
			sub := workload.GridGraph(4, 4)
			for i := 0; i < 16; i++ {
				for j := i + 1; j < 16; j++ {
					if sub.Adj[i][j] {
						g.AddEdge(i, j)
						g.AddEdge(16+i, 16+j)
					}
				}
			}
			return g
		}(),
	}
	for name, g := range families {
		n := 1 << vlsi.Log2Ceil(g.N)
		padded := workload.NewGraph(n)
		for i := 0; i < g.N; i++ {
			for j := i + 1; j < g.N; j++ {
				if g.Adj[i][j] {
					padded.AddEdge(i, j)
				}
			}
		}
		m := machine(t, n)
		LoadGraph(m, padded)
		labels, _ := ConnectedComponents(m, 0)
		if !SamePartition(labels, RefComponents(padded)) {
			t.Errorf("%s: wrong partition", name)
		}
	}
}

// TestMSTOnSparseStructures: spanning forests of structured sparse
// graphs (the cycle drops exactly its heaviest edge).
func TestMSTOnSparseStructures(t *testing.T) {
	n := 8
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for v := 0; v < n; v++ {
		u := (v + 1) % n
		w[v][u] = int64(v + 1) // weights 1..8 around the cycle
		w[u][v] = int64(v + 1)
	}
	m := machine(t, n)
	LoadWeights(m, w)
	edges, _ := MinSpanningTree(m, 0)
	var total int64
	for _, e := range edges {
		total += e.W
	}
	// MST = all edges except the heaviest (8): 1+…+7 = 28.
	if len(edges) != n-1 || total != 28 {
		t.Errorf("cycle MST: %d edges, weight %d (want 7 / 28): %v", len(edges), total, edges)
	}
}

// TestComponentsExtremeValues: vertex labels near the word range and
// adversarial Null-adjacent values must not confuse the MIN ascents.
func TestComponentsExtremeValues(t *testing.T) {
	// A graph whose only edge joins the two highest-numbered
	// vertices: hooks happen at the top of the label range.
	n := 16
	g := workload.NewGraph(n)
	g.AddEdge(14, 15)
	m := machine(t, n)
	LoadGraph(m, g)
	labels, _ := ConnectedComponents(m, 0)
	if labels[14] != labels[15] {
		t.Error("top-label edge not merged")
	}
	if !SamePartition(labels, RefComponents(g)) {
		t.Error("wrong partition")
	}
}
