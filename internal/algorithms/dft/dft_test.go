package dft

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func machine(t testing.TB, k int) *core.Machine {
	t.Helper()
	m, err := core.NewDefault(k, k*k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func close2(a, b []complex128, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func TestDFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	m := machine(t, 4)
	xs := make([]complex128, 16)
	xs[0] = 1
	got, done := DFT(m, xs, 0)
	for j, v := range got {
		if cmplx.Abs(v-1) > 1e-9 {
			t.Fatalf("impulse spectrum at %d = %v, want 1", j, v)
		}
	}
	if done <= 0 {
		t.Error("DFT took no time")
	}
}

func TestDFTConstant(t *testing.T) {
	// DFT of all-ones is N·δ₀.
	m := machine(t, 4)
	xs := make([]complex128, 16)
	for i := range xs {
		xs[i] = 1
	}
	got, _ := DFT(m, xs, 0)
	if cmplx.Abs(got[0]-16) > 1e-9 {
		t.Errorf("DC bin = %v, want 16", got[0])
	}
	for j := 1; j < 16; j++ {
		if cmplx.Abs(got[j]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0", j, got[j])
		}
	}
}

func TestDFTSingleTone(t *testing.T) {
	// exp(2πi·3t/N) concentrates in bin 3.
	m := machine(t, 4)
	n := 16
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(i)/float64(n)))
	}
	got, _ := DFT(m, xs, 0)
	if cmplx.Abs(got[3]-complex(float64(n), 0)) > 1e-9 {
		t.Errorf("bin 3 = %v, want %d", got[3], n)
	}
	for j := 0; j < n; j++ {
		if j != 3 && cmplx.Abs(got[j]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0", j, got[j])
		}
	}
}

func TestDFTMatchesReference(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		m := machine(t, k)
		xs := workload.NewRNG(uint64(k)).ComplexSignal(k * k)
		got, _ := DFT(m, xs, 0)
		want := RefDFT(xs)
		if !close2(got, want, 1e-7) {
			t.Errorf("K=%d: DFT disagrees with direct transform", k)
		}
	}
}

func TestDFTRoundTrip(t *testing.T) {
	m := machine(t, 4)
	xs := workload.NewRNG(77).ComplexSignal(16)
	spec, _ := DFT(m, xs, 0)
	back, _ := inverseDFT(m, spec)
	if !close2(back, xs, 1e-9) {
		t.Error("IDFT(DFT(x)) != x")
	}
}

func TestDFTParseval(t *testing.T) {
	m := machine(t, 4)
	xs := workload.NewRNG(5).ComplexSignal(16)
	spec, _ := DFT(m, xs, 0)
	var eT, eF float64
	for i := range xs {
		eT += real(xs[i])*real(xs[i]) + imag(xs[i])*imag(xs[i])
		eF += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
	}
	if math.Abs(eF-16*eT) > 1e-6*eF {
		t.Errorf("Parseval violated: %v vs %v", eF, 16*eT)
	}
}

func TestDFTArity(t *testing.T) {
	m := machine(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("wrong length accepted")
		}
	}()
	DFT(m, make([]complex128, 5), 0)
}

// TestDFTTimeShape: Θ(√N log N) = Θ(K log N): roughly linear in K,
// like bitonic sort (it shares the communication schedule).
func TestDFTTimeShape(t *testing.T) {
	var ks, times []float64
	for k := 4; k <= 32; k *= 2 {
		m := machine(t, k)
		xs := workload.NewRNG(uint64(k)).ComplexSignal(k * k)
		_, done := DFT(m, xs, 0)
		ks = append(ks, float64(k))
		times = append(times, float64(done))
	}
	e := vlsi.GrowthExponent(ks, times)
	if e < 0.7 || e > 1.8 {
		t.Errorf("DFT time grows as K^%.2f; want ~K", e)
	}
}

func TestDFTRegistersMirrored(t *testing.T) {
	m := machine(t, 2)
	xs := []complex128{1, 2i, -1, -2i}
	got, _ := DFT(m, xs, 0)
	// The register file holds the natural-order spectrum bits.
	for e := range got {
		re := math.Float64frombits(uint64(m.Get(RegRe, e/2, e%2)))
		im := math.Float64frombits(uint64(m.Get(RegIm, e/2, e%2)))
		if math.Abs(re-real(got[e])) > 1e-12 || math.Abs(im-imag(got[e])) > 1e-12 {
			t.Fatalf("registers at %d hold (%v,%v), spectrum %v", e, re, im, got[e])
		}
	}
}

// inverseDFT inverts a spectrum by the conjugate trick:
// IDFT(X) = conj(DFT(conj(X)))/N.
func inverseDFT(m *core.Machine, spectrum []complex128) ([]complex128, vlsi.Time) {
	n := len(spectrum)
	conj := make([]complex128, n)
	for i, v := range spectrum {
		conj[i] = cmplx.Conj(v)
	}
	y, t := DFT(m, conj, 0)
	out := make([]complex128, n)
	for i, v := range y {
		out[i] = cmplx.Conj(v) / complex(float64(n), 0)
	}
	return out, t
}
