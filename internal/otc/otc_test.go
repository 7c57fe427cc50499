package otc

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/algorithms/dft"
	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/matrix"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func testMachine(t testing.TB, k, l int) *Machine {
	t.Helper()
	m, err := New(k, l, vlsi.DefaultConfig(k*k*l))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cfg := vlsi.DefaultConfig(64)
	if _, err := New(3, 4, cfg); err == nil {
		t.Error("non-power-of-two K accepted")
	}
	if _, err := New(4, 0, cfg); err == nil {
		t.Error("zero cycle length accepted")
	}
	if _, err := New(4, 4, vlsi.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCirculate(t *testing.T) {
	m := testMachine(t, 2, 4)
	for q := 0; q < 4; q++ {
		m.Set(core.RegA, 0, 0, q, int64(q))
	}
	done := m.Circulate(0, 0, []core.Reg{core.RegA}, 0)
	if done <= 0 {
		t.Error("circulate took no time")
	}
	// R(q) := R((q+1) mod L): values rotate toward position 0.
	want := []int64{1, 2, 3, 0}
	for q := 0; q < 4; q++ {
		if m.Get(core.RegA, 0, 0, q) != want[q] {
			t.Errorf("after circulate, A(%d) = %d, want %d", q, m.Get(core.RegA, 0, 0, q), want[q])
		}
	}
	// L circulations restore the original arrangement.
	for i := 0; i < 3; i++ {
		m.Circulate(0, 0, []core.Reg{core.RegA}, 0)
	}
	for q := 0; q < 4; q++ {
		if m.Get(core.RegA, 0, 0, q) != int64(q) {
			t.Errorf("after L circulations, A(%d) = %d", q, m.Get(core.RegA, 0, 0, q))
		}
	}
}

func TestCirculateMultiRegisterCost(t *testing.T) {
	m := testMachine(t, 2, 4)
	one := m.Circulate(0, 0, []core.Reg{core.RegA}, 0)
	two := m.Circulate(0, 0, []core.Reg{core.RegA, core.RegB}, 0)
	if two <= one {
		t.Error("two-register circulate not costlier than one")
	}
}

func TestRootToCycle(t *testing.T) {
	m := testMachine(t, 4, 4)
	words := []int64{10, 20, 30, 40}
	m.SetRowRootQ(1, words)
	done := m.RootToCycle(core.Row(1), nil, core.RegA, 0)
	if done <= 0 {
		t.Error("RootToCycle took no time")
	}
	for j := 0; j < 4; j++ {
		for q := 0; q < 4; q++ {
			if m.Get(core.RegA, 1, j, q) != words[q] {
				t.Errorf("A(1,%d,%d) = %d, want %d", j, q, m.Get(core.RegA, 1, j, q), words[q])
			}
		}
	}
	// Selective destination.
	m.SetRowRootQ(0, []int64{1, 2, 3, 4})
	m.RootToCycle(core.Row(0), core.One(2), core.RegB, 0)
	if m.Get(core.RegB, 0, 2, 1) != 2 || m.Get(core.RegB, 0, 1, 1) != 0 {
		t.Error("selector ignored")
	}
}

func TestCycleToRoot(t *testing.T) {
	m := testMachine(t, 4, 4)
	for q := 0; q < 4; q++ {
		m.Set(core.RegB, 2, 3, q, int64(100+q))
	}
	m.CycleToRoot(core.Col(3), core.One(2), core.RegB, 0)
	got := m.colRootQ[3]
	for q := 0; q < 4; q++ {
		if got[q] != int64(100+q) {
			t.Errorf("root queue[%d] = %d, want %d", q, got[q], 100+q)
		}
	}
	// Source contents preserved (circulated L times in all).
	for q := 0; q < 4; q++ {
		if m.Get(core.RegB, 2, 3, q) != int64(100+q) {
			t.Error("source register not preserved")
		}
	}
}

func TestCycleToRootSelectorArity(t *testing.T) {
	m := testMachine(t, 4, 2)
	defer func() {
		if recover() == nil {
			t.Error("empty selection accepted")
		}
	}()
	m.CycleToRoot(core.Row(0), func(int) bool { return false }, core.RegA, 0)
}

func TestCycleToCycle(t *testing.T) {
	m := testMachine(t, 4, 4)
	for q := 0; q < 4; q++ {
		m.Set(core.RegA, 1, 1, q, int64(q*q))
	}
	m.CycleToCycle(core.Col(1), core.One(1), core.RegA, nil, core.RegB, 0)
	for i := 0; i < 4; i++ {
		for q := 0; q < 4; q++ {
			if m.Get(core.RegB, i, 1, q) != int64(q*q) {
				t.Errorf("B(%d,1,%d) = %d, want %d", i, q, m.Get(core.RegB, i, 1, q), q*q)
			}
		}
	}
}

func TestSumAndMinCycleToRoot(t *testing.T) {
	m := testMachine(t, 4, 2)
	for k := 0; k < 4; k++ {
		m.Set(core.RegA, 0, k, 0, int64(k+1)) // 1,2,3,4
		m.Set(core.RegA, 0, k, 1, int64(10*k))
	}
	m.SumCycleToRoot(core.Row(0), nil, core.RegA, 0)
	q := m.rowRootQ[0]
	if q[0] != 10 || q[1] != 60 {
		t.Errorf("sums = %v, want [10 60]", q)
	}
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSortOTC(t *testing.T) {
	cases := []struct{ k, l int }{{2, 2}, {4, 4}, {8, 4}, {4, 8}}
	for _, c := range cases {
		m := testMachine(t, c.k, c.l)
		n := c.k * c.l
		xs := workload.NewRNG(uint64(n)).Perm(n)
		got, done := SortOTC(m, xs, 0)
		if !equal(got, sortedCopy(xs)) {
			t.Errorf("(%d,%d): mis-sorted", c.k, c.l)
		}
		if done <= 0 {
			t.Error("sort took no time")
		}
	}
}

func TestSortOTCDuplicates(t *testing.T) {
	m := testMachine(t, 4, 4)
	xs := []int64{3, 1, 3, 3, 1, 2, 2, 1, 5, 5, 5, 5, 0, 0, 9, 9}
	got, _ := SortOTC(m, xs, 0)
	if !equal(got, sortedCopy(xs)) {
		t.Errorf("duplicates mis-sorted: %v", got)
	}
}

func TestSortOTCQuick(t *testing.T) {
	f := func(seed uint64) bool {
		m, err := New(4, 4, vlsi.DefaultConfig(256))
		if err != nil {
			return false
		}
		xs := workload.NewRNG(seed).Ints(16, 50)
		got, _ := SortOTC(m, xs, 0)
		return equal(got, sortedCopy(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortOTCArity(t *testing.T) {
	m := testMachine(t, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("wrong input length accepted")
		}
	}()
	SortOTC(m, make([]int64, 3), 0)
}

// TestOTCAreaBelowOTN is the headline of Section V: same problem
// size, log²-factor less area.
func TestOTCAreaBelowOTN(t *testing.T) {
	for _, n := range []int{64, 256} {
		l := 1 << uint(vlsi.Log2Floor(vlsi.Log2Ceil(n)))
		otcM := testMachine(t, n/l, l)
		otnM, err := core.NewDefault(n, n*n)
		if err != nil {
			t.Fatal(err)
		}
		if otcM.Area() >= otnM.Area() {
			t.Errorf("N=%d: OTC area %d not below OTN area %d", n, otcM.Area(), otnM.Area())
		}
	}
}

// TestEmulatedSortOTN runs the paper's SORT-OTN unchanged on the
// Section VI emulation and checks correctness, the area saving, and
// that the time stays within a polylog factor of the native OTN run.
func TestEmulatedSortOTN(t *testing.T) {
	n := 64
	l := 4
	cfg := vlsi.DefaultConfig(n * n)
	emu, err := NewEmulatedOTN(n, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	native, err := core.New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := workload.NewRNG(21).Perm(n)
	gotE, timeE := sorting.SortOTN(emu, xs, 0)
	gotN, timeN := sorting.SortOTN(native, xs, 0)
	if !equal(gotE, sortedCopy(xs)) {
		t.Fatal("emulated SORT-OTN mis-sorted")
	}
	if !equal(gotN, gotE) {
		t.Error("emulated and native outputs differ")
	}
	if emu.Area() >= native.Area() {
		t.Errorf("emulated area %d not below native %d", emu.Area(), native.Area())
	}
	// Section VI: "the time required on the OTC is the same as on
	// the OTN". Allow a small constant factor for the circulations.
	if timeE > 6*timeN {
		t.Errorf("emulated time %d more than 6× native %d", timeE, timeN)
	}
}

func TestNewEmulatedOTNValidation(t *testing.T) {
	cfg := vlsi.DefaultConfig(64)
	if _, err := NewEmulatedOTN(64, 3, cfg); err == nil {
		t.Error("non-power-of-two cycle length accepted")
	}
	if _, err := NewEmulatedOTN(63, 4, cfg); err == nil {
		t.Error("non-divisible logical side accepted")
	}
	if _, err := NewEmulatedOTN(48, 4, cfg); err == nil {
		t.Error("non-power-of-two cycle count accepted")
	}
	if _, err := NewEmulatedOTN(64, 4, vlsi.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestEmulatedPipelining: the L logical rows of one group share a
// physical tree, so a pardo broadcast over all logical rows must cost
// more than a single row's broadcast but far less than L separate
// serial broadcasts (they pipeline at word intervals).
func TestEmulatedPipelining(t *testing.T) {
	n, l := 64, 8
	cfg := vlsi.DefaultConfig(n * n)
	emu, err := NewEmulatedOTN(n, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	emu.SetRowRoot(0, 1)
	single := emu.RootToLeaf(core.Row(0), nil, core.RegA, 0)
	emu.Reset()
	var all vlsi.Time
	for r := 0; r < l; r++ { // the l rows sharing group 0's tree
		emu.SetRowRoot(r, 1)
		if d := emu.RootToLeaf(core.Row(r), nil, core.RegA, 0); d > all {
			all = d
		}
	}
	if all <= single {
		t.Errorf("group broadcast (%d) not above single (%d): no shared-tree contention", all, single)
	}
	if all >= vlsi.Time(l)*single {
		t.Errorf("group broadcast (%d) as bad as %d serial broadcasts (%d each): no pipelining", all, l, single)
	}
}

// TestOTCMatVecMatchesOTN: the OTC, running VECTORMATRIXMULT-OTN
// through the Section VI block emulation, computes the same product
// as the OTN on the same inputs.
func TestOTCMatVecMatchesOTN(t *testing.T) {
	n := 16
	rng := workload.NewRNG(73)
	b := rng.IntMatrix(n, 20)
	x := rng.Ints(n, 20)

	emu, err := NewEmulatedOTN(n, 4, vlsi.DefaultConfig(n*n))
	if err != nil {
		t.Fatal(err)
	}
	matrix.LoadMatrix(emu, core.RegB, b)
	yOTC, _ := matrix.VectorMatrixMult(emu, x, core.RegB, 0)

	mOTN, err := core.NewDefault(n, n*n)
	if err != nil {
		t.Fatal(err)
	}
	matrix.LoadMatrix(mOTN, core.RegB, b)
	yOTN, _ := matrix.VectorMatrixMult(mOTN, x, core.RegB, 0)

	for j := 0; j < n; j++ {
		if yOTC[j] != yOTN[j] {
			t.Fatalf("y[%d]: OTC %d vs OTN %d", j, yOTC[j], yOTN[j])
		}
	}
}

// TestEmulatedDFT and TestEmulatedBitonic: the Section VI emulation
// runs every OTN program — including the recursive Section IV
// algorithms whose COMPEX schedules stress the stride logic of the
// cycle routers.
func TestEmulatedBitonicSort(t *testing.T) {
	n := 16 // (16×16) logical base, 256 keys
	emu, err := NewEmulatedOTN(n, 4, vlsi.DefaultConfig(n*n))
	if err != nil {
		t.Fatal(err)
	}
	xs := workload.NewRNG(61).Ints(n*n, 1000)
	got, done := sorting.BitonicSortOTN(emu, xs, 0)
	if !equal(got, sortedCopy(xs)) {
		t.Error("emulated bitonic mis-sorted")
	}
	if done <= 0 {
		t.Error("no time charged")
	}
}

func TestEmulatedDFT(t *testing.T) {
	n := 8
	emu, err := NewEmulatedOTN(n, 4, vlsi.DefaultConfig(n*n))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]complex128, n*n)
	xs[0] = 1 // impulse → flat spectrum
	spec, done := dft.DFT(emu, xs, 0)
	for j, v := range spec {
		if real(v) < 0.999 || real(v) > 1.001 {
			t.Fatalf("bin %d = %v, want 1", j, v)
		}
	}
	if done <= 0 {
		t.Error("no time charged")
	}
}

// TestEmulatedGraphAlgorithms: components and MST through the
// emulation, validated against the references.
func TestEmulatedGraphAlgorithms(t *testing.T) {
	n := 32
	cfg := vlsi.DefaultConfig(n * n)
	emu, err := NewEmulatedOTN(n, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewRNG(81).Gnp(n, 0.1)
	graph.LoadGraph(emu, g)
	labels, _ := graph.ConnectedComponents(emu, 0)
	if !graph.SamePartition(labels, graph.RefComponents(g)) {
		t.Error("emulated components wrong")
	}

	emu2, err := NewEmulatedOTN(n, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewRNG(83).WeightMatrix(n)
	graph.LoadWeights(emu2, w)
	edges, _ := graph.MinSpanningTree(emu2, 0)
	wantW, wantE := graph.RefMST(w)
	var total int64
	for _, e := range edges {
		total += e.W
	}
	if len(edges) != wantE || total != wantW {
		t.Errorf("emulated MST: %d edges weight %d, want %d / %d", len(edges), total, wantE, wantW)
	}
}
