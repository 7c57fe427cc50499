package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/vlsi"
)

func TestExperimentHelpers(t *testing.T) {
	e := &Experiment{ID: "T", Title: "x"}
	for _, n := range []int{4, 8, 16} {
		e.Rows = append(e.Rows,
			Row{Network: "a", N: n, Area: vlsi.Area(n * n), Time: vlsi.Time(n)},
			Row{Network: "b", N: n, Area: vlsi.Area(n), Time: vlsi.Time(n * n)},
		)
	}
	if nets := e.Networks(); len(nets) != 2 || nets[0] != "a" || nets[1] != "b" {
		t.Errorf("Networks = %v", nets)
	}
	aA, aT, aM := e.Exponents("a")
	if math.Abs(aA-2) > 1e-9 || math.Abs(aT-1) > 1e-9 || math.Abs(aM-4) > 1e-9 {
		t.Errorf("exponents of a: %v %v %v", aA, aT, aM)
	}
	// a: AT² = n²·n² = n⁴; b: AT² = n·n⁴ = n⁵ → a wins at the top.
	best, n := e.BestAT2()
	if best != "a" || n != 16 {
		t.Errorf("BestAT2 = %s at %d", best, n)
	}
	if !math.IsNaN(at2At(e, "missing", 4)) {
		t.Error("at2At for missing row should be NaN")
	}
	r := e.Render()
	for _, want := range []string{"T — x", "network", "best measured"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

func TestTable1Sorting(t *testing.T) {
	e, err := Table1Sorting([]int{16, 64, 256}, vlsi.LogDelay{})
	if err != nil {
		t.Fatal(err)
	}
	nets := e.Networks()
	if len(nets) != 5 {
		t.Fatalf("networks = %v", nets)
	}
	// The paper's shape for sorting (Section VIII, point 3): the OTN
	// and OTC are COMPARABLE to the existing fast networks — every
	// network's A·T² grows as N²·polylog, i.e. with an exponent near
	// 2 over the sweep.
	for _, name := range nets {
		_, _, at2 := e.Exponents(name)
		if at2 < 1.7 || at2 > 3.2 {
			t.Errorf("%s A·T² exponent %.2f outside the N²·polylog band", name, at2)
		}
	}
	// The fast networks sort in polylog time (time exponent well
	// below mesh's ~√N).
	_, meshT, _ := e.Exponents("mesh")
	for _, fast := range []string{"psn", "ccc", "otn", "otc"} {
		_, tExp, _ := e.Exponents(fast)
		if tExp >= meshT {
			t.Errorf("%s time exponent %.2f not below mesh's %.2f", fast, tExp, meshT)
		}
	}
	// Mesh has by far the largest absolute time at the top size.
	var meshTime, otnTime vlsi.Time
	for _, r := range e.Rows {
		if r.N == 256 {
			switch r.Network {
			case "mesh":
				meshTime = r.Time
			case "otn":
				otnTime = r.Time
			}
		}
	}
	if meshTime <= 2*otnTime {
		t.Errorf("mesh time %d not well above otn time %d", meshTime, otnTime)
	}
	// And the OTC uses less area than the OTN for the same problem.
	if ao, at := at2At(e, "otn", 256), at2At(e, "otc", 256); at >= ao {
		t.Errorf("otc A·T² %g not below otn %g (the Table I relation)", at, ao)
	}
}

func TestTable4ConstantDelay(t *testing.T) {
	e, err := Table1Sorting([]int{16, 64}, vlsi.ConstantDelay{})
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "Table IV" {
		t.Errorf("ID = %s", e.ID)
	}
	// Section VII-D: no OTC row under the constant-delay model.
	for _, n := range e.Networks() {
		if n == "otc" {
			t.Error("Table IV should not include the OTC")
		}
	}
	// The OTN sort gets faster without wire delays.
	logE, err := Table1Sorting([]int{64}, vlsi.LogDelay{})
	if err != nil {
		t.Fatal(err)
	}
	var tConst, tLog vlsi.Time
	for _, r := range e.Rows {
		if r.Network == "otn" && r.N == 64 {
			tConst = r.Time
		}
	}
	for _, r := range logE.Rows {
		if r.Network == "otn" && r.N == 64 {
			tLog = r.Time
		}
	}
	if tConst >= tLog {
		t.Errorf("constant-delay OTN sort (%d) not faster than log-delay (%d)", tConst, tLog)
	}
}

func TestTable2BoolMatMul(t *testing.T) {
	e, err := Table2BoolMatMul([]int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Headline of Table II: the OTN/OTC's A·T² grows ~N² slower than
	// the PSN/CCC's (N⁴·polylog vs N⁶·polylog). At simulable sizes
	// that shows up as clearly separated growth exponents — the
	// measured shape matches even though the absolute crossover sits
	// beyond toy N.
	_, _, psnExp := e.Exponents("psn")
	_, _, cccExp := e.Exponents("ccc")
	_, _, otnExp := e.Exponents("otn")
	_, _, otcExp := e.Exponents("otc")
	if psnExp-otnExp < 1.0 {
		t.Errorf("psn A·T² exponent %.2f not well above otn %.2f", psnExp, otnExp)
	}
	if cccExp-otcExp < 0.5 {
		t.Errorf("ccc A·T² exponent %.2f not well above otc %.2f", cccExp, otcExp)
	}
	// Mesh is the special-purpose optimum (Θ(N⁴)): exponent near 4.
	_, _, meshExp := e.Exponents("mesh")
	if meshExp < 3.5 || meshExp > 4.6 {
		t.Errorf("mesh A·T² exponent %.2f, want ≈4", meshExp)
	}
	// OTN beats PSN absolutely at the top size (same time class,
	// N² less area-growth).
	if at2At(e, "otn", 16) >= at2At(e, "psn", 16) {
		t.Errorf("otn A·T² %g not below psn %g at N=16", at2At(e, "otn", 16), at2At(e, "psn", 16))
	}
}

func TestTable3Components(t *testing.T) {
	e, err := Table3Components([]int{16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	// Headline of Table III: the OTC beats every other class
	// outright — "time performances comparable to fast-but-large
	// networks, while using chip areas comparable to slow-but-small
	// networks".
	for _, other := range []string{"mesh", "psn", "ccc"} {
		if at2At(e, "otc", 64) >= at2At(e, other, 64) {
			t.Errorf("otc A·T² %g not below %s %g", at2At(e, "otc", 64), other, at2At(e, other, 64))
		}
	}
	best, _ := e.BestAT2()
	if best != "otc" && best != "otn" {
		t.Errorf("best A·T² network = %s, want otn/otc", best)
	}
	// Growth separation: OTN/OTC A·T² exponents sit well below both
	// baselines' (N²·polylog vs N⁴-class).
	_, _, meshExp := e.Exponents("mesh")
	_, _, psnExp := e.Exponents("psn")
	for _, ours := range []string{"otn", "otc"} {
		_, _, exp := e.Exponents(ours)
		if meshExp-exp < 1.0 || psnExp-exp < 0.6 {
			t.Errorf("%s A·T² exponent %.2f not well below mesh %.2f / psn %.2f", ours, exp, meshExp, psnExp)
		}
	}
}

func TestMSTExperiment(t *testing.T) {
	e, err := MSTExperiment([]int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Rows) != 4 {
		t.Fatalf("rows = %d", len(e.Rows))
	}
	// OTC: same time class, smaller area.
	var areaOTN, areaOTC vlsi.Area
	for _, r := range e.Rows {
		if r.N == 16 {
			if r.Network == "otn" {
				areaOTN = r.Area
			} else {
				areaOTC = r.Area
			}
		}
	}
	if areaOTC >= areaOTN {
		t.Errorf("OTC MST area %d not below OTN %d", areaOTC, areaOTN)
	}
}

func TestFigureAreas(t *testing.T) {
	e, err := FigureAreas([]int{16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	aOTN, _, _ := e.Exponents("otn")
	aOTC, _, _ := e.Exponents("otc")
	// OTN grows strictly faster than the OTC (the log² N factor).
	if aOTN <= aOTC {
		t.Errorf("OTN area exponent %v not above OTC %v", aOTN, aOTC)
	}
	if aOTC < 1.7 || aOTC > 2.4 {
		t.Errorf("OTC area exponent %v; want ≈2", aOTC)
	}
}

func TestPipelineExperiment(t *testing.T) {
	latency, steady, err := PipelineExperiment(32, 10)
	if err != nil {
		t.Fatal(err)
	}
	if steady >= latency/2 {
		t.Errorf("steady spacing %d not well below latency %d", steady, latency)
	}

	// The §VIII numbers EXPERIMENTS.md records and otbench prints: at
	// N=64 one sort takes 350 bit-times, and a new sorted batch leaves
	// every 13 once the pipeline is full.
	latency, steady, err = PipelineExperiment(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if latency != 350 || steady != 13 {
		t.Errorf("PipelineExperiment(64, 16) = latency %d, steady %d; want 350, 13", latency, steady)
	}
}

func TestCycleLenFor(t *testing.T) {
	cases := map[int]int{4: 2, 16: 4, 64: 4, 256: 8, 1024: 8}
	for n, want := range cases {
		if got := cycleLenFor(n); got != want {
			t.Errorf("cycleLenFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMeshSide(t *testing.T) {
	if meshSide(16) != 4 || meshSide(64) != 8 || meshSide(256) != 16 {
		t.Error("meshSide wrong")
	}
}

func TestMatMul3DStudy(t *testing.T) {
	e, err := MatMul3DStudy([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// The 3D arrangement is at least as fast on the same product.
	if at2At(e, "mot3d", 8) <= 0 {
		t.Fatal("missing mot3d row")
	}
	var t2, t3 vlsi.Time
	for _, r := range e.Rows {
		if r.N == 8 {
			if r.Network == "otn-2d" {
				t2 = r.Time
			} else {
				t3 = r.Time
			}
		}
	}
	if t3 >= t2 {
		t.Errorf("3D matmul (%d) not faster than 2D (%d)", t3, t2)
	}
}

func TestMarkdownRendering(t *testing.T) {
	e := &Experiment{ID: "Table X", Title: "demo", Notes: []string{"a note"}}
	e.Rows = append(e.Rows,
		Row{Network: "a", N: 4, Area: 16, Time: 4, Claim: Claim{Area: vlsi.Poly(2, 0), Time: vlsi.Poly(1, 0), AT2: vlsi.Poly(4, 0)}},
		Row{Network: "a", N: 8, Area: 64, Time: 8},
		Row{Network: "b", N: 4, Area: 4, Time: 16, Analytic: true},
		Row{Network: "b", N: 8, Area: 8, Time: 64},
	)
	md := e.Markdown()
	for _, want := range []string{
		"## Table X — demo",
		"| network | N | area (λ²) |",
		"| a | 4 | 16 | 4 |",
		"*(analytic)*",
		"Best measured A·T²",
		"> a note",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// at2At returns the measured A·T² of a network at size n (NaN if
// absent).
func at2At(e *Experiment, network string, n int) float64 {
	for _, r := range e.rowsOf(network) {
		if r.N == n {
			return r.AT2()
		}
	}
	return math.NaN()
}
