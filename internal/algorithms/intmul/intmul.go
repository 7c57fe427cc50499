// Package intmul multiplies long integers on the orthogonal trees
// network. The paper's introduction notes that "Capello and Steiglitz
// use the OTN (which they call orthogonal forest) for integer
// multiplication" [8]; this module implements that application:
// schoolbook digit convolution with the partial-product matrix living
// in the base, the operand digits entering through the ports, and the
// digit sums produced by the column trees.
//
// For K-digit operands on a (K×K)-OTN:
//
//  1. digit x_j broadcasts down column j, digit y_i along row i
//     (Θ(log² K));
//  2. every BP forms its partial product x_j·y_i (one serial
//     multiply);
//  3. row i routes its products to the columns of their target digit
//     positions — a cyclic skew by i, the words crossing subtree
//     boundaries through their lowest common ancestors (Θ(K log K)
//     with congestion, the dominant term);
//  4. each column tree sums its digit position's contributions, low
//     and high halves pipelined (Θ(log² K));
//  5. the carry chain is resolved digit-serially at the ports.
//
// Digits are base 2^DigitBits so all intermediate sums fit the
// machine word comfortably.
package intmul

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/vlsi"
)

// DigitBits is the operand digit width in bits.
const DigitBits = 4

const base = 1 << DigitBits

// Registers used by the multiplier.
var (
	regX  = core.NewReg("x")   // x_j at BP(i,j)
	regY  = core.NewReg("y")   // y_i at BP(i,j)
	regP  = core.NewReg("p")   // partial product
	regLo = core.NewReg("plo") // products destined for digit c (< K)
	regHi = core.NewReg("phi") // products destined for digit c+K
)

// Digits decomposes a non-negative integer into K base-2^DigitBits
// digits, least significant first. It panics if the value needs more
// than K digits.
func Digits(v *big.Int, k int) []int64 {
	if v.Sign() < 0 {
		panic("intmul: negative operand")
	}
	out := make([]int64, k)
	tmp := new(big.Int).Set(v)
	mask := big.NewInt(base - 1)
	for i := 0; i < k; i++ {
		var d big.Int
		d.And(tmp, mask)
		out[i] = d.Int64()
		tmp.Rsh(tmp, DigitBits)
	}
	if tmp.Sign() != 0 {
		panic(fmt.Sprintf("intmul: operand needs more than %d digits", k))
	}
	return out
}

// FromDigits recomposes a digit slice (least significant first, digits
// may exceed the base — carries are resolved here).
func FromDigits(ds []int64) *big.Int {
	out := new(big.Int)
	for i := len(ds) - 1; i >= 0; i-- {
		out.Lsh(out, DigitBits)
		out.Add(out, big.NewInt(ds[i]))
	}
	return out
}

// Multiply computes x·y on the machine; both operands must fit in K
// digits (K the machine side). It returns the product and the
// completion time.
func Multiply(m *core.Machine, x, y *big.Int, rel vlsi.Time) (*big.Int, vlsi.Time) {
	k := m.K
	xd := Digits(x, k)
	yd := Digits(y, k)

	// Step 1: operand distribution. x_j down column j; y_i along
	// row i.
	t := m.ParDo(false, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		m.SetColRoot(vec.Index, xd[vec.Index])
		return m.RootToLeaf(vec, nil, regX, r)
	})
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		m.SetRowRoot(vec.Index, yd[vec.Index])
		return m.RootToLeaf(vec, nil, regY, r)
	})

	// Step 2: partial products.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Set(regP, i, j, m.Get(regX, i, j)*m.Get(regY, i, j))
		}
	}
	t = m.Local(t, m.CostMul())

	// Step 3: skew row i by i — product (i,j) belongs to digit i+j;
	// it moves to column (i+j) mod K, landing in the low-half
	// register when i+j < K and the high-half otherwise. Within a
	// row the map j → (i+j) mod K is a bijection, so every column
	// receives exactly one of the two halves; both registers are
	// cleared first.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Set(regLo, i, j, 0)
			m.Set(regHi, i, j, 0)
		}
	}
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		i := vec.Index
		router := m.Router(vec)
		done := r
		for j := 0; j < k; j++ {
			c := (i + j) % k
			dst := regLo
			if i+j >= k {
				dst = regHi
			}
			m.Set(dst, i, c, m.Get(regP, i, j))
			if c != j {
				if d := router.Route(router.Leaf(j), router.Leaf(c), r); d > done {
					done = d
				}
			}
		}
		return done
	})

	// Step 4: column sums, the two halves pipelined through the same
	// trees.
	lo := make([]int64, k)
	hi := make([]int64, k)
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		d1 := m.SumLeafToRoot(vec, nil, regLo, r)
		lo[vec.Index] = m.ColRoot(vec.Index)
		d2 := m.SumLeafToRoot(vec, nil, regHi, d1)
		hi[vec.Index] = m.ColRoot(vec.Index)
		return d2
	})

	// Step 5: serial carry resolution across the 2K digit positions
	// at the output ports.
	digits := make([]int64, 2*k)
	copy(digits[:k], lo)
	copy(digits[k:], hi)
	t += vlsi.Time(2 * k * DigitBits)

	return FromDigits(digits), t
}
