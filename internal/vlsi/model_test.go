package vlsi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1023, 10}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.in); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1024, 10},
	}
	for _, c := range cases {
		if got := Log2Floor(c.in); got != c.want {
			t.Errorf("Log2Floor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPow2Helpers(t *testing.T) {
	for _, x := range []int{1, 2, 4, 64, 1024} {
		if !IsPow2(x) {
			t.Errorf("IsPow2(%d) = false", x)
		}
	}
	for _, x := range []int{0, -4, 3, 6, 100} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true", x)
		}
	}
}

func TestDelayModelAxioms(t *testing.T) {
	models := []DelayModel{LogDelay{}, ConstantDelay{}, LinearDelay{}}
	for _, m := range models {
		// Positivity and monotonicity over a range of lengths.
		prev := Time(0)
		for _, l := range []int{0, 1, 2, 3, 4, 10, 100, 1000, 1 << 20} {
			d := m.FirstBit(l)
			if d < 1 {
				t.Errorf("%s: FirstBit(%d) = %d < 1", m.Name(), l, d)
			}
			if d < prev {
				t.Errorf("%s: FirstBit(%d) = %d not monotone (prev %d)", m.Name(), l, d, prev)
			}
			prev = d
		}
	}
}

func TestDelayModelAxiomsQuick(t *testing.T) {
	for _, m := range []DelayModel{LogDelay{}, ConstantDelay{}, LinearDelay{}} {
		m := m
		f := func(a, b uint16) bool {
			la, lb := int(a), int(b)
			if la > lb {
				la, lb = lb, la
			}
			da, db := m.FirstBit(la), m.FirstBit(lb)
			return da >= 1 && da <= db
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestLogDelayValues(t *testing.T) {
	m := LogDelay{}
	cases := []struct {
		length int
		want   Time
	}{
		{1, 1}, {2, 1}, {4, 2}, {8, 3}, {1024, 10}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := m.FirstBit(c.length); got != c.want {
			t.Errorf("LogDelay.FirstBit(%d) = %d, want %d", c.length, got, c.want)
		}
	}
}

func TestWireTransit(t *testing.T) {
	c := Config{WordBits: 10, Model: LogDelay{}}
	// length 1024 → first bit 10, then 9 more bits.
	if got := c.WireTransit(1024); got != 19 {
		t.Errorf("WireTransit(1024) = %d, want 19", got)
	}
	cc := Config{WordBits: 10, Model: ConstantDelay{}}
	if got := cc.WireTransit(1024); got != 10 {
		t.Errorf("constant WireTransit(1024) = %d, want 10", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{WordBits: 8, Model: LogDelay{}}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{WordBits: 0, Model: LogDelay{}}).Validate(); err == nil {
		t.Error("zero word width accepted")
	}
	if err := (Config{WordBits: 8}).Validate(); err == nil {
		t.Error("nil model accepted")
	}
}

func TestWordBitsFor(t *testing.T) {
	if WordBitsFor(4) != 8 {
		t.Errorf("WordBitsFor(4) = %d, want floor 8", WordBitsFor(4))
	}
	if WordBitsFor(1024) != 11 {
		t.Errorf("WordBitsFor(1024) = %d, want 11", WordBitsFor(1024))
	}
}

func TestMetricAT2(t *testing.T) {
	m := Metric{Area: 100, Time: 10}
	if m.AT2() != 10000 {
		t.Errorf("AT2 = %v, want 10000", m.AT2())
	}
}

func TestPolyLabels(t *testing.T) {
	cases := []struct {
		p, q float64
		want string
	}{
		{0, 0, "1"},
		{2, 0, "N^2"},
		{0, 4, "log^4 N"},
		{2, 4, "N^2 log^4 N"},
	}
	for _, c := range cases {
		if got := Poly(c.p, c.q).Label; got != c.want {
			t.Errorf("Poly(%g,%g).Label = %q, want %q", c.p, c.q, got, c.want)
		}
	}
}

func TestPolyEval(t *testing.T) {
	a := Poly(2, 1)
	if got := a.Eval(4); math.Abs(got-32) > 1e-9 {
		t.Errorf("N^2 log N at 4 = %v, want 32", got)
	}
	// Guarded below 2 so log never vanishes.
	if a.Eval(1) != a.Eval(2) {
		t.Errorf("Eval should clamp small n")
	}
}

func TestGrowthExponent(t *testing.T) {
	// Exact power law is recovered exactly.
	var xs, ys []float64
	for _, n := range []float64{8, 16, 32, 64, 128} {
		xs = append(xs, n)
		ys = append(ys, 3*math.Pow(n, 2.5))
	}
	if e := GrowthExponent(xs, ys); math.Abs(e-2.5) > 1e-9 {
		t.Errorf("exponent = %v, want 2.5", e)
	}
	// Degenerate inputs.
	if e := GrowthExponent(nil, nil); !math.IsNaN(e) {
		t.Errorf("empty sweep should be NaN, got %v", e)
	}
	if e := GrowthExponent([]float64{4}, []float64{5}); !math.IsNaN(e) {
		t.Errorf("single sample should be NaN, got %v", e)
	}
}

func TestGrowthExponentWithLogFactor(t *testing.T) {
	// n^2 log^2 n over a 8..256 sweep should fit between 2 and 3.
	var xs, ys []float64
	for n := 8.0; n <= 256; n *= 2 {
		xs = append(xs, n)
		ys = append(ys, Poly(2, 2).Eval(n))
	}
	e := GrowthExponent(xs, ys)
	if e < 2.0 || e > 3.0 {
		t.Errorf("exponent of N^2 log^2 N sweep = %v, want in (2,3)", e)
	}
}

func TestRatioTrend(t *testing.T) {
	ns := []float64{8, 16, 32, 64, 128, 256}
	var exact []float64
	for _, n := range ns {
		exact = append(exact, 7*Poly(2, 4).Eval(n))
	}
	if r := RatioTrend(ns, exact, Poly(2, 4)); math.Abs(r-1) > 1e-9 {
		t.Errorf("trend of exact match = %v, want 1", r)
	}
	if r := RatioTrend(ns[:1], exact[:1], Poly(2, 4)); !math.IsNaN(r) {
		t.Errorf("short sweep should be NaN, got %v", r)
	}
}

func TestMaxTimes(t *testing.T) {
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Error("MaxTime wrong")
	}
	if MaxTimes() != 0 {
		t.Error("MaxTimes() should be 0")
	}
	if MaxTimes(1, 9, 4) != 9 {
		t.Error("MaxTimes wrong")
	}
}
