package orthotrees_test

import (
	"math/big"
	"sort"
	"testing"

	orthotrees "repro"
	"repro/internal/core"
)

func TestFacadeSort(t *testing.T) {
	m, err := orthotrees.NewOTN(32)
	if err != nil {
		t.Fatal(err)
	}
	xs := orthotrees.NewRNG(1).Perm(32)
	got, elapsed := orthotrees.Sort(m, xs)
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("facade sort wrong at %d", i)
		}
	}
	if elapsed <= 0 || m.Area() <= 0 {
		t.Error("missing cost outputs")
	}
}

func TestFacadeGraph(t *testing.T) {
	m, err := orthotrees.NewOTN(16)
	if err != nil {
		t.Fatal(err)
	}
	g := orthotrees.NewRNG(2).Gnp(16, 0.2)
	orthotrees.LoadGraph(m, g)
	labels, elapsed := orthotrees.ConnectedComponents(m)
	if len(labels) != 16 || elapsed <= 0 {
		t.Error("components facade broken")
	}
}

func TestFacadeMatMul(t *testing.T) {
	m, err := orthotrees.NewMatMulMachine(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := orthotrees.NewRNG(3)
	a := rng.BoolMatrix(4, 0.5)
	b := rng.BoolMatrix(4, 0.5)
	c, elapsed := orthotrees.BoolMatMul(m, a, b)
	if len(c) != 4 || elapsed <= 0 {
		t.Error("bool matmul facade broken")
	}
}

func TestFacadeDFT(t *testing.T) {
	m, err := orthotrees.NewOTN(4)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]complex128, 16)
	xs[1] = 1
	spec, elapsed := orthotrees.DFT(m, xs)
	if len(spec) != 16 || elapsed <= 0 {
		t.Error("dft facade broken")
	}
}

func TestFacadeOTC(t *testing.T) {
	m, err := orthotrees.NewOTC(4, 4, orthotrees.DefaultConfig(256))
	if err != nil {
		t.Fatal(err)
	}
	xs := orthotrees.NewRNG(4).Perm(16)
	got, _ := orthotrees.SortOTC(m, xs)
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatal("otc facade mis-sorted")
		}
	}
}

func TestFacadeEmulated(t *testing.T) {
	m, err := orthotrees.NewEmulatedOTN(16, 4, orthotrees.DefaultConfig(256))
	if err != nil {
		t.Fatal(err)
	}
	xs := orthotrees.NewRNG(5).Perm(16)
	got, _ := orthotrees.Sort(m, xs)
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatal("emulated facade mis-sorted")
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	cfg := orthotrees.DefaultConfig(64)
	if _, err := orthotrees.NewMesh(8, cfg); err != nil {
		t.Error(err)
	}
	if _, err := orthotrees.NewPSN(64, cfg); err != nil {
		t.Error(err)
	}
	if _, err := orthotrees.NewCCC(64, cfg); err != nil {
		t.Error(err)
	}
}

func TestFacadeLayouts(t *testing.T) {
	o, err := orthotrees.BuildOTNLayout(4, 8)
	if err != nil || o.Chip.Area() <= 0 {
		t.Errorf("OTN layout: %v", err)
	}
	c, err := orthotrees.BuildOTCLayout(4, 4, 8)
	if err != nil || c.Chip.Area() <= 0 {
		t.Errorf("OTC layout: %v", err)
	}
	cy, err := orthotrees.BuildCycleLayout(4, 8)
	if err != nil || cy.Chip.Area() <= 0 {
		t.Errorf("cycle layout: %v", err)
	}
}

func TestFacadePipelineStudy(t *testing.T) {
	latency, steady, err := orthotrees.PipelineStudy(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if steady <= 0 || latency <= steady {
		t.Errorf("latency %d, steady %d", latency, steady)
	}
}

func TestFacadeIntegerMultiply(t *testing.T) {
	m, err := orthotrees.NewOTN(16) // 64-bit operands
	if err != nil {
		t.Fatal(err)
	}
	x := new(big.Int).SetUint64(0xDEADBEEFCAFE)
	y := new(big.Int).SetUint64(0x123456789AB)
	got, elapsed := orthotrees.MultiplyIntegers(m, x, y)
	want := new(big.Int).Mul(x, y)
	if got.Cmp(want) != 0 {
		t.Errorf("product %v, want %v", got, want)
	}
	if elapsed <= 0 {
		t.Error("no time charged")
	}
}

func TestFacadeClosure(t *testing.T) {
	m, err := orthotrees.NewMatMulMachine(4)
	if err != nil {
		t.Fatal(err)
	}
	adj := [][]int64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {0, 0, 0, 0}}
	closure, elapsed := orthotrees.TransitiveClosure(m, adj)
	if closure[0][3] != 1 || elapsed <= 0 {
		t.Error("closure facade broken")
	}
	labels := orthotrees.ComponentsFromClosure(closure)
	if len(labels) != 4 {
		t.Error("labels wrong length")
	}
}

func TestFacadeScaledAndMoT3D(t *testing.T) {
	cfg := orthotrees.DefaultConfig(64 * 64)
	s, err := orthotrees.NewScaledOTN(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := orthotrees.NewOTNWith(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := orthotrees.NewRNG(9).Perm(64)
	_, tS := orthotrees.Sort(s, xs)
	_, tP := orthotrees.Sort(p, xs)
	if tS >= tP {
		t.Errorf("scaled sort %d not faster than plain %d", tS, tP)
	}

	m3, err := orthotrees.NewMoT3D(4, orthotrees.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	rng := orthotrees.NewRNG(4)
	c, elapsed := m3.MatMul(rng.BoolMatrix(4, 0.5), rng.BoolMatrix(4, 0.5), true, 0)
	if len(c) != 4 || elapsed <= 0 {
		t.Error("mot3d facade broken")
	}
}

func TestFacadeBitonicMerge(t *testing.T) {
	m, err := orthotrees.NewOTN(4)
	if err != nil {
		t.Fatal(err)
	}
	xs := orthotrees.NewRNG(6).Ints(16, 100)
	merged, _ := orthotrees.BitonicMerge(m, orthotrees.MakeBitonic(xs))
	for i := 1; i < len(merged); i++ {
		if merged[i-1] > merged[i] {
			t.Fatal("merge facade mis-sorted")
		}
	}
}

func TestFacadeMatMul3DStudy(t *testing.T) {
	e, err := orthotrees.MatMul3DStudy([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Rows) != 2 {
		t.Errorf("rows = %d", len(e.Rows))
	}
}

// TestRouteCompileMatchesInterpretation: the route-bound bodies of
// otbench's suite take the same simulated time whether the machine
// records and replays compiled route plans (the default) or interprets
// every route (SetRouteCompile(false)). Each body runs three times on
// one machine, Reset between runs, so the compiled side both records a
// plan and replays it.
func TestRouteCompileMatchesInterpretation(t *testing.T) {
	row := orthotrees.Vector{IsRow: true}
	xs := orthotrees.NewRNG(11).Perm(64)
	bodies := []struct {
		name string
		run  func(m *orthotrees.Machine) orthotrees.Time
	}{
		{"SortOTN/n=64", func(m *orthotrees.Machine) orthotrees.Time {
			m.Reset()
			_, done := orthotrees.Sort(m, xs)
			return done
		}},
		{"TreeBroadcast/K=64", func(m *orthotrees.Machine) orthotrees.Time {
			r := m.Router(row)
			r.Reset()
			_, done := r.Broadcast(0)
			return done
		}},
		{"TreeReduce/K=64", func(m *orthotrees.Machine) orthotrees.Time {
			r := m.Router(row)
			r.Reset()
			return r.ReduceUniform(0)
		}},
		{"TreeRoute/K=64", func(m *orthotrees.Machine) orthotrees.Time {
			r := m.Router(row)
			r.Reset()
			return r.Route(r.Leaf(0), r.Leaf(63), 0)
		}},
		{"LeafToLeaf/K=64", func(m *orthotrees.Machine) orthotrees.Time {
			m.Reset()
			m.Set(core.RegA, 0, 5, 42)
			return m.LeafToLeaf(row, core.One(5), core.RegA, core.All, core.RegB, 0)
		}},
		{"ParDoSweep/K=64", func(m *orthotrees.Machine) orthotrees.Time {
			m.Reset()
			return m.ParDo(true, 0, func(vec orthotrees.Vector, rel orthotrees.Time) orthotrees.Time {
				return m.LeafToRoot(vec, core.One(5), core.RegA, rel)
			})
		}},
	}
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			var times [2][3]orthotrees.Time
			var areas, plans [2]int64
			for side, compile := range []bool{false, true} {
				m, err := orthotrees.NewOTN(64)
				if err != nil {
					t.Fatal(err)
				}
				m.SetRouteCompile(compile)
				for i := range times[side] {
					times[side][i] = body.run(m)
				}
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}
				areas[side] = int64(m.Area())
				plans[side] = int64(m.RoutePlansCompiled())
			}
			if plans[0] != 0 || plans[1] == 0 {
				t.Errorf("routers holding a plan: interpreted %d, compiled %d; want 0 and some", plans[0], plans[1])
			}
			if times[1] != times[0] || areas[1] != areas[0] {
				t.Errorf("compiled %v (area %d), interpreted %v (area %d)", times[1], areas[1], times[0], areas[0])
			}
			if times[0][0] <= 0 || times[0][1] != times[0][0] || times[0][2] != times[0][0] {
				t.Errorf("interpreted runs %v: want one positive time on every Reset run", times[0])
			}
		})
	}
}
