package cube

import (
	"testing"
	"testing/quick"

	"repro/internal/algorithms/graph"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func unitCost(int) vlsi.Time { return 1 }

func machine(t testing.TB, p int) *Machine {
	t.Helper()
	m, err := New(p, 8, unitCost)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(6, 8, unitCost); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := New(8, 0, unitCost); err == nil {
		t.Error("zero word width accepted")
	}
	if _, err := New(8, 8, nil); err == nil {
		t.Error("nil cost accepted")
	}
}

func TestExchange(t *testing.T) {
	m := machine(t, 8)
	vals := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	m.Load("x", vals)
	done := m.Exchange(1, "x", "y", 0)
	// One dimension step plus the word.
	if want := m.DimCost(1) + vlsi.Time(m.WordBits); done != want {
		t.Errorf("exchange time %d, want %d", done, want)
	}
	for p := 0; p < 8; p++ {
		if m.Get("y", p) != vals[p^2] {
			t.Fatalf("PE %d got %d, want %d", p, m.Get("y", p), vals[p^2])
		}
	}
}

func TestSegReduceMin(t *testing.T) {
	m := machine(t, 16)
	vals := []int64{5, 3, 9, 7, Null, Null, Null, Null, 2, 8, 1, 6, 4, 4, 4, 4}
	m.Load("x", vals)
	m.SegReduceMin(2, "x", "min", 0) // blocks of 4
	want := []int64{3, Null, 1, 4}
	for b := 0; b < 4; b++ {
		for q := 0; q < 4; q++ {
			if m.Get("min", b*4+q) != want[b] {
				t.Fatalf("block %d PE %d: min = %d, want %d", b, q, m.Get("min", b*4+q), want[b])
			}
		}
	}
}

func TestSegBroadcast(t *testing.T) {
	m := machine(t, 8)
	m.Load("x", []int64{10, 0, 0, 0, 20, 0, 0, 0})
	done := m.SegBroadcast(2, "x", "y", 0)
	// A DESCEND sweep over the two low dimensions.
	if want := m.DimCost(1) + m.DimCost(0) + 2*vlsi.Time(m.WordBits); done != want {
		t.Errorf("segmented broadcast time %d, want %d", done, want)
	}
	for p := 0; p < 8; p++ {
		want := int64(10)
		if p >= 4 {
			want = 20
		}
		if m.Get("y", p) != want {
			t.Fatalf("PE %d: %d, want %d", p, m.Get("y", p), want)
		}
	}
}

func TestPermute(t *testing.T) {
	m := machine(t, 8)
	vals := []int64{0, 10, 20, 30, 40, 50, 60, 70}
	m.Load("x", vals)
	from := []int64{7, 6, 5, 4, 3, 2, 1, 0}
	done := m.Permute(from, "x", "y", 0)
	for p := 0; p < 8; p++ {
		if m.Get("y", p) != vals[7-p] {
			t.Fatalf("PE %d: %d, want %d", p, m.Get("y", p), vals[7-p])
		}
	}
	// Two sweeps over all dimensions.
	if done != vlsi.Time(2*3*(1+8)) {
		t.Errorf("permute time %d, want %d", done, 2*3*(1+8))
	}
}

func TestPermuteValidation(t *testing.T) {
	m := machine(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("bad fetch index accepted")
		}
	}()
	m.Permute([]int64{0, 1, 2, 3, 4, 5, 6, 99}, "x", "y", 0)
}

func adjOf(g *workload.Graph) [][]int64 {
	adj := make([][]int64, g.N)
	for i := range adj {
		adj[i] = make([]int64, g.N)
		for j := range adj[i] {
			if g.Adj[i][j] {
				adj[i][j] = 1
			}
		}
	}
	return adj
}

func TestConnectSmall(t *testing.T) {
	// Path 0-1-2-3 plus isolates.
	g := workload.NewGraph(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	m := machine(t, 64)
	n := m.LoadAdjacency(adjOf(g))
	labels, done := m.Connect(n, 0)
	if !graph.SamePartition(labels, graph.RefComponents(g)) {
		t.Errorf("labels %v vs reference %v", labels, graph.RefComponents(g))
	}
	if done <= 0 {
		t.Error("connect took no time")
	}
}

func TestConnectRandom(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		for _, p := range []float64{0.05, 0.15, 0.4} {
			g := workload.NewRNG(uint64(n)+uint64(p*100)).Gnp(n, p)
			m := machine(t, n*n)
			m.LoadAdjacency(adjOf(g))
			labels, _ := m.Connect(n, 0)
			if !graph.SamePartition(labels, graph.RefComponents(g)) {
				t.Errorf("n=%d p=%v: wrong partition", n, p)
			}
		}
	}
}

func TestConnectQuick(t *testing.T) {
	f := func(seed uint64) bool {
		n := 8
		g := workload.NewRNG(seed).Gnp(n, 0.2)
		m, err := New(n*n, 8, unitCost)
		if err != nil {
			return false
		}
		m.LoadAdjacency(adjOf(g))
		labels, _ := m.Connect(n, 0)
		return graph.SamePartition(labels, graph.RefComponents(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConnectMatchesOTNLabels: the cube and OTN implementations use
// the same hooking discipline, so on the same graph they must agree
// (as partitions) — cross-network validation of Table III.
func TestConnectMatchesOTNLabels(t *testing.T) {
	n := 16
	g := workload.NewRNG(3).Gnp(n, 0.15)
	m := machine(t, n*n)
	m.LoadAdjacency(adjOf(g))
	labels, _ := m.Connect(n, 0)
	if !graph.SamePartition(labels, graph.RefComponents(g)) {
		t.Error("cube CONNECT wrong")
	}
}

// TestConnectTimeScalesWithDimCost: doubling the per-dimension cost
// must increase the completion time, and the time must be polylog in
// N for unit costs.
func TestConnectTimeScalesWithDimCost(t *testing.T) {
	n := 16
	g := workload.NewRNG(5).Gnp(n, 0.2)
	cheap, _ := New(n*n, 8, unitCost)
	costly, _ := New(n*n, 8, func(int) vlsi.Time { return 10 })
	cheap.LoadAdjacency(adjOf(g))
	costly.LoadAdjacency(adjOf(g))
	_, tCheap := cheap.Connect(n, 0)
	_, tCostly := costly.Connect(n, 0)
	if tCostly <= tCheap {
		t.Errorf("costly dims (%d) not slower than cheap (%d)", tCostly, tCheap)
	}
	var logs, times []float64
	for _, nn := range []int{8, 16, 32, 64} {
		gg := workload.NewRNG(uint64(nn)).Gnp(nn, 2.0/float64(nn))
		mm, _ := New(nn*nn, 8, unitCost)
		mm.LoadAdjacency(adjOf(gg))
		_, d := mm.Connect(nn, 0)
		logs = append(logs, float64(vlsi.Log2Ceil(nn)))
		times = append(times, float64(d))
	}
	e := vlsi.GrowthExponent(logs, times)
	if e < 1.0 || e > 4.5 {
		t.Errorf("cube CONNECT time grows as log^%.2f N; want polylog (~log³)", e)
	}
}
