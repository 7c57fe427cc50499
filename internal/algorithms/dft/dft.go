// Package dft implements the discrete Fourier transform on the
// orthogonal trees network (Section IV-B of the paper): an N = K²
// point transform on a (K×K)-OTN whose butterfly exchanges ride the
// row and column trees exactly like the COMPEX steps of bitonic
// merging — "the FFT algorithm for computing an N-element DFT has a
// very similar structure to that of Bitonic Merging" — for a total of
// Θ(√N log N) bit-times.
//
// The implementation is a decimation-in-frequency FFT: stage strides
// run N/2, N/4, …, 1, the same schedule as a bitonic merge, and the
// natural-order result is recovered by the standard bit-reversal
// read-out at the ports. Values are complex words held as two
// machine registers (real and imaginary bits).
package dft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/core"
	"repro/internal/vlsi"
)

// Registers holding the real and imaginary halves of each point.
var (
	RegRe = core.NewReg("re")
	RegIm = core.NewReg("im")
)

// DFT computes the N = K²-point discrete Fourier transform of xs on
// the machine, returning the spectrum in natural order and the
// completion time. The forward transform uses the kernel
// exp(−2πi·jk/N).
func DFT(m *core.Machine, xs []complex128, rel vlsi.Time) ([]complex128, vlsi.Time) {
	k := m.K
	n := k * k
	if len(xs) != n {
		panic(fmt.Sprintf("dft: %d points on a (%d×%d)-OTN (want %d)", len(xs), k, k, n))
	}
	data := append([]complex128(nil), xs...)
	deposit(m, data)

	t := rel
	// Decimation in frequency: strides N/2 … 1, bitonic-merge shape.
	for h := n / 2; h >= 1; h /= 2 {
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(2*h)))
		for e := 0; e < n; e++ {
			if e&h != 0 {
				continue
			}
			a, b := data[e], data[e+h]
			data[e] = a + b
			diff := a - b
			// Twiddle ω^(e mod h) for the block-local index.
			data[e+h] = diff * cmplx.Pow(w, complex(float64(e%h), 0))
		}
		t = exchangeStage(m, h, t)
		// Butterfly arithmetic: one complex multiply (4 word
		// multiplies pipelined through the serial multiplier) and
		// two complex adds per BP.
		t = m.Local(t, m.CostMul()+2*m.CostCompare())
	}

	// Bit-reversed read-out at the ports.
	out := make([]complex128, n)
	lg := uint(vlsi.Log2Ceil(n))
	for e := 0; e < n; e++ {
		out[int(bits.Reverse64(uint64(e))>>(64-lg))] = data[e]
	}
	deposit(m, out)
	return out, t
}

// exchangeStage charges the tree traffic of one butterfly stage at
// linear stride h: pairs within rows for h < K, across rows (via the
// column trees) for h ≥ K — identical to the bitonic COMPEX routing.
func exchangeStage(m *core.Machine, h int, rel vlsi.Time) vlsi.Time {
	k := m.K
	if h >= k {
		rowStride := h / k
		return m.ParDo(false, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			return m.Router(vec).ExchangePairs(rowStride, r)
		})
	}
	return m.ParDo(true, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.Router(vec).ExchangePairs(h, r)
	})
}

// deposit mirrors the complex values into the machine's register
// file (real and imaginary float bits).
func deposit(m *core.Machine, data []complex128) {
	k := m.K
	for e, v := range data {
		m.Set(RegRe, e/k, e%k, int64(math.Float64bits(real(v))))
		m.Set(RegIm, e/k, e%k, int64(math.Float64bits(imag(v))))
	}
}

// RefDFT is the direct O(N²) reference transform.
func RefDFT(xs []complex128) []complex128 {
	n := len(xs)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += xs[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(j)*float64(t)/float64(n)))
		}
		out[j] = s
	}
	return out
}
