// Package matrix implements the paper's matrix algorithms on the
// orthogonal trees network:
//
//   - VECTORMATRIXMULT-OTN (Section III-A): x·B on a (N×N)-OTN in
//     Θ(log² N) bit-times, matrix resident in the base.
//   - MATRIXMULT-OTN (Section III-A): A·B as N pipelined
//     vector-matrix products, successive result rows emerging every
//     Θ(log N) bit-times.
//   - The Table II configuration: C = A·B on an (N²×N²)-scale mesh of
//     trees in Θ(log² N) bit-times, with a Boolean variant — the
//     arrangement whose A·T² beats the PSN and CCC by about N²
//     (Section VI computes its OTC form; details of the operand
//     distribution follow the segmented-subtree technique).
package matrix

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vlsi"
)

// LoadMatrix stores B(i,j) into register reg of BP(i,j) — the
// paper's standing assumption for vector-matrix products ("keeping
// pair (a(i), b(j)) in BP(i,j)").
func LoadMatrix(m *core.Machine, reg core.Reg, b [][]int64) {
	if len(b) != m.K {
		panic(fmt.Sprintf("matrix: %d×? matrix on a (%d×%d)-OTN", len(b), m.K, m.K))
	}
	for i := range b {
		if len(b[i]) != m.K {
			panic("matrix: ragged matrix")
		}
		for j := range b[i] {
			m.Set(reg, i, j, b[i][j])
		}
	}
}

// VectorMatrixMult computes y = x·B (y_j = Σ_i x_i·B(i,j)) on an OTN
// holding B in register bReg. x enters at the input ports (row
// roots); y emerges at the output ports (column roots). The three
// steps of Section III-A: broadcast x_i down row tree i, multiply in
// the base, sum up the column trees.
func VectorMatrixMult(m *core.Machine, x []int64, bReg core.Reg, rel vlsi.Time) ([]int64, vlsi.Time) {
	k := m.K
	if len(x) != k {
		panic(fmt.Sprintf("matrix: vector of %d on a (%d×%d)-OTN", len(x), k, k))
	}
	for i, v := range x {
		m.SetRowRoot(i, v)
	}
	t := m.ParDo(true, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.RootToLeaf(vec, nil, core.RegA, r)
	})
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Set(core.RegC, i, j, m.Get(core.RegA, i, j)*m.Get(bReg, i, j))
		}
	}
	t = m.Local(t, m.CostMul())
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		return m.SumLeafToRoot(vec, nil, core.RegC, r)
	})
	y := make([]int64, k)
	for j := 0; j < k; j++ {
		y[j] = m.ColRoot(j)
	}
	return y, t
}

// MatMulPipelined computes C = A·B on a (N×N)-OTN holding B, as the
// paper's "for i := 0 to N−1 pipedo VECTORMATRIXMULT-OTN(A_i, B)".
// Successive rows of A enter the input ports Θ(log N) apart and
// successive rows of C emerge Θ(log N) apart once the pipeline fills
// — the routers' persistent occupancy makes the overlap real. It
// returns C and the per-row completion times.
func MatMulPipelined(m *core.Machine, a, b [][]int64, rel vlsi.Time) ([][]int64, []vlsi.Time) {
	k := m.K
	if len(a) != k || len(b) != k {
		panic(fmt.Sprintf("matrix: %d×%d·%d×? on a (%d×%d)-OTN", len(a), len(a), len(b), k, k))
	}
	LoadMatrix(m, core.RegB, b)
	c := make([][]int64, k)
	times := make([]vlsi.Time, k)
	w := m.WordTime()

	// Per-row register banks so in-flight rows do not clobber each
	// other (the paper's BPs hold the pipeline's intermediate values).
	regA := make([]core.Reg, k)
	regC := make([]core.Reg, k)
	for i := 0; i < k; i++ {
		regA[i] = core.NewReg(fmt.Sprintf("A.%d", i))
		regC[i] = core.NewReg(fmt.Sprintf("C.%d", i))
		times[i] = rel + vlsi.Time(i)*w // Θ(log N) injection interval
	}
	// Phase-major issue matches the time order of the pipeline.
	for i := 0; i < k; i++ {
		for r, v := range a[i] {
			m.SetRowRoot(r, v)
		}
		times[i] = m.ParDo(true, times[i], func(vec core.Vector, r vlsi.Time) vlsi.Time {
			return m.RootToLeaf(vec, nil, regA[i], r)
		})
	}
	for i := 0; i < k; i++ {
		for r := 0; r < k; r++ {
			for j := 0; j < k; j++ {
				m.Set(regC[i], r, j, m.Get(regA[i], r, j)*m.Get(core.RegB, r, j))
			}
		}
		times[i] = m.Local(times[i], m.CostMul())
	}
	for i := 0; i < k; i++ {
		times[i] = m.ParDo(false, times[i], func(vec core.Vector, r vlsi.Time) vlsi.Time {
			return m.SumLeafToRoot(vec, nil, regC[i], r)
		})
		row := make([]int64, k)
		for j := 0; j < k; j++ {
			row[j] = m.ColRoot(j)
		}
		c[i] = row
	}
	return c, times
}

// RefMatMul is the sequential reference C = A·B.
func RefMatMul(a, b [][]int64) [][]int64 {
	n := len(a)
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

// RefBoolMatMul is the sequential reference for Boolean matrices
// (AND/OR semiring).
func RefBoolMatMul(a, b [][]int64) [][]int64 {
	n := len(a)
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if a[i][k] != 0 && b[k][j] != 0 {
					c[i][j] = 1
					break
				}
			}
		}
	}
	return c
}
