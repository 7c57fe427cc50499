// Benchmark harness: one benchmark per evaluation artefact of the
// paper. Each benchmark runs the corresponding simulation sweep and
// reports, beyond Go's wall-clock ns/op, the simulated quantities the
// paper tables: bit-times, chip area (λ²), and A·T², via
// b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
//
// The custom metrics are what reproduce the tables; ns/op only
// measures the simulator itself.
package orthotrees_test

import (
	"testing"

	orthotrees "repro"
	"repro/internal/analysis"
	"repro/internal/vlsi"
)

// report attaches the simulated metrics of one experiment row to the
// benchmark output.
func report(b *testing.B, e *orthotrees.Experiment, network string, n int) {
	b.Helper()
	for _, r := range e.Rows {
		if r.Network == network && r.N == n {
			b.ReportMetric(float64(r.Time), "bit-times")
			b.ReportMetric(float64(r.Area), "area-λ²")
			b.ReportMetric(r.AT2(), "AT²")
			return
		}
	}
	b.Fatalf("no row for %s at N=%d", network, n)
}

// --- Table I: sorting under the logarithmic delay model ------------

func benchTable1(b *testing.B, network string) {
	const n = 64
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.Table1([]int{n})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, network, n)
}

func BenchmarkTable1SortMesh(b *testing.B) { benchTable1(b, "mesh") }
func BenchmarkTable1SortPSN(b *testing.B)  { benchTable1(b, "psn") }
func BenchmarkTable1SortCCC(b *testing.B)  { benchTable1(b, "ccc") }
func BenchmarkTable1SortOTN(b *testing.B)  { benchTable1(b, "otn") }
func BenchmarkTable1SortOTC(b *testing.B)  { benchTable1(b, "otc") }

// --- Table II: Boolean matrix multiplication -----------------------

func benchTable2(b *testing.B, network string) {
	const n = 8
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.Table2([]int{n})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, network, n)
}

func BenchmarkTable2BoolMatMulMesh(b *testing.B) { benchTable2(b, "mesh") }
func BenchmarkTable2BoolMatMulPSN(b *testing.B)  { benchTable2(b, "psn") }
func BenchmarkTable2BoolMatMulCCC(b *testing.B)  { benchTable2(b, "ccc") }
func BenchmarkTable2BoolMatMulOTN(b *testing.B)  { benchTable2(b, "otn") }
func BenchmarkTable2BoolMatMulOTC(b *testing.B)  { benchTable2(b, "otc") }

// --- Table III: connected components -------------------------------

func benchTable3(b *testing.B, network string) {
	const n = 64
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.Table3([]int{n})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, network, n)
}

func BenchmarkTable3ComponentsMesh(b *testing.B) { benchTable3(b, "mesh") }
func BenchmarkTable3ComponentsPSN(b *testing.B)  { benchTable3(b, "psn") }
func BenchmarkTable3ComponentsOTN(b *testing.B)  { benchTable3(b, "otn") }
func BenchmarkTable3ComponentsOTC(b *testing.B)  { benchTable3(b, "otc") }

// --- Table IV: sorting under the constant-delay model --------------

func benchTable4(b *testing.B, network string) {
	const n = 64
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.Table4([]int{n})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, network, n)
}

func BenchmarkTable4ConstSortMesh(b *testing.B) { benchTable4(b, "mesh") }
func BenchmarkTable4ConstSortPSN(b *testing.B)  { benchTable4(b, "psn") }
func BenchmarkTable4ConstSortCCC(b *testing.B)  { benchTable4(b, "ccc") }
func BenchmarkTable4ConstSortOTN(b *testing.B)  { benchTable4(b, "otn") }

// --- MST (introduction / Section VI prose) -------------------------

func benchMST(b *testing.B, network string) {
	const n = 32
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.MSTStudy([]int{n})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, network, n)
}

func BenchmarkMSTOTN(b *testing.B) { benchMST(b, "otn") }
func BenchmarkMSTOTC(b *testing.B) { benchMST(b, "otc") }

// --- Figures 1–3: layout areas --------------------------------------

func BenchmarkFig1LayoutArea(b *testing.B) {
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.FigureAreas([]int{256})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "otn", 256)
}

func BenchmarkFig3LayoutArea(b *testing.B) {
	var e *orthotrees.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = orthotrees.FigureAreas([]int{256})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "otc", 256)
}

// --- Section II-B: primitive operation cost -------------------------

func BenchmarkPrimitives(b *testing.B) {
	m, err := orthotrees.NewOTN(256)
	if err != nil {
		b.Fatal(err)
	}
	var done orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.SetRowRoot(0, 1)
		done = m.RootToLeaf(orthotrees.Vector{IsRow: true}, nil, orthotrees.RegA, 0)
	}
	b.ReportMetric(float64(done), "bit-times")
	b.ReportMetric(float64(vlsi.Log2Ceil(256)*vlsi.Log2Ceil(256*256)), "log²N-units")
}

// --- Section III-A: pipelined matrix multiplication -----------------

func BenchmarkMatMulPipeline(b *testing.B) {
	const n = 32
	m, err := orthotrees.NewOTN(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := orthotrees.NewRNG(1)
	a := rng.IntMatrix(n, 50)
	bb := rng.IntMatrix(n, 50)
	var rowTimes []orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		_, rowTimes = orthotrees.MatMul(m, a, bb)
	}
	b.ReportMetric(float64(rowTimes[n-1]), "bit-times")
	b.ReportMetric(float64(rowTimes[n-1]-rowTimes[n-2]), "row-gap")
}

// --- Section IV: bitonic sort and DFT on the √N×√N OTN --------------

func BenchmarkBitonic(b *testing.B) {
	const k = 16
	m, err := orthotrees.NewOTN(k)
	if err != nil {
		b.Fatal(err)
	}
	xs := orthotrees.NewRNG(2).Ints(k*k, 1<<20)
	var done orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		_, done = orthotrees.BitonicSort(m, xs)
	}
	b.ReportMetric(float64(done), "bit-times")
}

func BenchmarkDFT(b *testing.B) {
	const k = 16
	m, err := orthotrees.NewOTN(k)
	if err != nil {
		b.Fatal(err)
	}
	xs := orthotrees.NewRNG(3).ComplexSignal(k * k)
	var done orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		_, done = orthotrees.DFT(m, xs)
	}
	b.ReportMetric(float64(done), "bit-times")
}

// --- Section VI: OTC block emulation ---------------------------------

func BenchmarkOTCEmulation(b *testing.B) {
	const n = 64
	cfg := orthotrees.DefaultConfig(n * n)
	xs := orthotrees.NewRNG(4).Perm(n)
	var tNative, tEmulated orthotrees.Time
	for i := 0; i < b.N; i++ {
		native, err := orthotrees.NewOTNWith(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		emu, err := orthotrees.NewEmulatedOTN(n, 4, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, tNative = orthotrees.Sort(native, xs)
		_, tEmulated = orthotrees.Sort(emu, xs)
	}
	b.ReportMetric(float64(tNative), "otn-bit-times")
	b.ReportMetric(float64(tEmulated), "otc-bit-times")
	b.ReportMetric(float64(tEmulated)/float64(tNative), "slowdown")
}

// --- Section VIII: problem pipelining --------------------------------

func BenchmarkSortPipeline(b *testing.B) {
	var latency, steady orthotrees.Time
	var err error
	for i := 0; i < b.N; i++ {
		latency, steady, err = orthotrees.PipelineStudy(64, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(latency), "latency")
	b.ReportMetric(float64(steady), "steady-interval")
	b.ReportMetric(float64(latency)/float64(steady), "speedup")
}

// --- Ablation: wire-delay model sensitivity (DESIGN.md) --------------

func BenchmarkAblationDelayModels(b *testing.B) {
	const n = 64
	xs := orthotrees.NewRNG(5).Perm(n)
	times := map[string]orthotrees.Time{}
	for i := 0; i < b.N; i++ {
		for _, model := range []vlsi.DelayModel{vlsi.LogDelay{}, vlsi.ConstantDelay{}, vlsi.LinearDelay{}} {
			m, err := orthotrees.NewOTNWith(n, orthotrees.Config{WordBits: vlsi.WordBitsFor(n * n), Model: model})
			if err != nil {
				b.Fatal(err)
			}
			_, t := orthotrees.Sort(m, xs)
			times[model.Name()] = t
		}
	}
	b.ReportMetric(float64(times["log-delay"]), "log-delay")
	b.ReportMetric(float64(times["constant-delay"]), "const-delay")
	b.ReportMetric(float64(times["linear-delay"]), "linear-delay")
}

// --- Ablation: tree-congestion contribution (DESIGN.md) --------------

func BenchmarkAblationCongestion(b *testing.B) {
	// The Θ(√N) bitonic bottleneck is pure congestion: compare a
	// stride-K/2 COMPEX (K/2 words through the root) against a
	// stride-1 COMPEX (disjoint subtrees).
	const k = 256
	m, err := orthotrees.NewOTN(k)
	if err != nil {
		b.Fatal(err)
	}
	var far, near orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		near = m.Router(orthotrees.Vector{IsRow: true}).ExchangePairs(1, 0)
		m.Reset()
		far = m.Router(orthotrees.Vector{IsRow: true}).ExchangePairs(k/2, 0)
	}
	b.ReportMetric(float64(near), "stride-1")
	b.ReportMetric(float64(far), "stride-K/2")
	b.ReportMetric(float64(far)/float64(near), "congestion-ratio")
}

// Guard: the harness itself must keep regenerating coherent tables.
func BenchmarkTableCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := analysis.Table3Components([]int{16, 32})
		if err != nil {
			b.Fatal(err)
		}
		if best, _ := e.BestAT2(); best != "otc" && best != "otn" {
			b.Fatalf("best A·T² = %s", best)
		}
	}
}

// --- Extension: 3D mesh of trees (§VII-B discussion) -----------------

func BenchmarkExtensionMoT3DMatMul(b *testing.B) {
	const n = 8
	m, err := orthotrees.NewMoT3D(n, orthotrees.DefaultConfig(n*n*n))
	if err != nil {
		b.Fatal(err)
	}
	rng := orthotrees.NewRNG(6)
	x := rng.BoolMatrix(n, 0.4)
	y := rng.BoolMatrix(n, 0.4)
	var done orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		_, done = m.MatMul(x, y, true, 0)
	}
	b.ReportMetric(float64(done), "bit-times")
	b.ReportMetric(float64(m.Area()), "area-λ²")
	b.ReportMetric(orthotrees.Metric{Area: m.Area(), Time: done}.AT2(), "AT²")
}

// --- Extension: Thompson scaling [31] ---------------------------------

func BenchmarkAblationScaling(b *testing.B) {
	const n = 128
	cfg := orthotrees.DefaultConfig(n * n)
	xs := orthotrees.NewRNG(7).Perm(n)
	var tPlain, tScaled orthotrees.Time
	for i := 0; i < b.N; i++ {
		plain, err := orthotrees.NewOTNWith(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		scaled, err := orthotrees.NewScaledOTN(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, tPlain = orthotrees.Sort(plain, xs)
		_, tScaled = orthotrees.Sort(scaled, xs)
	}
	b.ReportMetric(float64(tPlain), "plain-bit-times")
	b.ReportMetric(float64(tScaled), "scaled-bit-times")
	b.ReportMetric(float64(tPlain)/float64(tScaled), "speedup")
}

// --- Extension: transitive closure by Boolean squaring ---------------

func BenchmarkTransitiveClosure(b *testing.B) {
	const n = 8
	m, err := orthotrees.NewMatMulMachine(n)
	if err != nil {
		b.Fatal(err)
	}
	adj := orthotrees.NewRNG(8).BoolMatrix(n, 0.2)
	var done orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		_, done = orthotrees.TransitiveClosure(m, adj)
	}
	b.ReportMetric(float64(done), "bit-times")
}

// --- §IV: the explicit BITONICMERGE-OTN procedure --------------------

func BenchmarkBitonicMerge(b *testing.B) {
	const k = 16
	m, err := orthotrees.NewOTN(k)
	if err != nil {
		b.Fatal(err)
	}
	xs := orthotrees.MakeBitonic(orthotrees.NewRNG(9).Ints(k*k, 1<<20))
	var done orthotrees.Time
	for i := 0; i < b.N; i++ {
		m.Reset()
		_, done = orthotrees.BitonicMerge(m, xs)
	}
	b.ReportMetric(float64(done), "bit-times")
}
