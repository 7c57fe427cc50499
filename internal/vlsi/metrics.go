package vlsi

import (
	"fmt"
	"math"
)

// Metric couples the two quantities Thompson's theory trades off: chip
// area and computation time. The figure of merit throughout the paper
// is A·T².
type Metric struct {
	// Area of the layout in square λ-units.
	Area Area
	// Time for the computation in bit-times.
	Time Time
}

// AT2 returns the paper's figure of merit, area·time². It is computed
// in floating point because the product overflows int64 for the larger
// sweeps.
func (m Metric) AT2() float64 {
	return float64(m.Area) * float64(m.Time) * float64(m.Time)
}

// String renders the metric compactly for tables and traces.
func (m Metric) String() string {
	return fmt.Sprintf("A=%d T=%d AT2=%.3g", m.Area, m.Time, m.AT2())
}

// Asym is an asymptotic cost formula: it maps a problem size n to the
// growth function's value, ignoring constant factors. The analysis
// package uses these to compare the shape of measured sweeps with the
// shape claimed in the paper's tables.
type Asym struct {
	// Label is the formula as printed in the paper, e.g. "N^2 log^4 N".
	Label string
	// F evaluates the growth function at n.
	F func(n float64) float64
}

// Eval evaluates the formula at n. It guards n ≥ 2 so log terms are
// positive.
func (a Asym) Eval(n float64) float64 {
	if n < 2 {
		n = 2
	}
	return a.F(n)
}

// Poly returns the asymptotic growth function n^p · log^q(n) with a
// printable label, which covers every entry in the paper's Tables
// I–IV.
func Poly(p, q float64) Asym {
	label := ""
	switch {
	case p == 0 && q == 0:
		label = "1"
	case p == 0:
		label = fmt.Sprintf("log^%g N", q)
	case q == 0:
		label = fmt.Sprintf("N^%g", p)
	default:
		label = fmt.Sprintf("N^%g log^%g N", p, q)
	}
	return Asym{
		Label: label,
		F: func(n float64) float64 {
			return math.Pow(n, p) * math.Pow(math.Log2(n), q)
		},
	}
}

// GrowthExponent estimates the exponent e such that y ≈ c·x^e from a
// sweep of (x, y) samples, by least-squares regression in log-log
// space. It is the tool the benchmark harness uses to check that a
// measured time or area sweep has the polynomial *shape* a table row
// claims (the paper's log-power factors show up as curvature that the
// tolerance absorbs at the sizes a simulation can reach).
//
// It returns NaN if fewer than two valid samples are supplied.
func GrowthExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("vlsi: GrowthExponent requires equal-length slices")
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// RatioTrend reports how the ratio measured/asymptotic behaves over a
// sweep: the ratio of its last to its first value. A trend near 1
// means the measurement tracks the claimed growth; a strongly
// divergent trend means the shapes disagree. Returns NaN on
// insufficient data.
func RatioTrend(ns []float64, measured []float64, claim Asym) float64 {
	if len(ns) != len(measured) || len(ns) < 2 {
		return math.NaN()
	}
	first := measured[0] / claim.Eval(ns[0])
	last := measured[len(ns)-1] / claim.Eval(ns[len(ns)-1])
	if first == 0 {
		return math.NaN()
	}
	return last / first
}
