package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bits"
)

// gnpOracle is the plain G(n, p) loop gnpEach replaces: one Float64
// per vertex pair i < j in row-major order.
func gnpOracle(r *RNG, n int, p float64, edge func(i, j int)) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				edge(i, j)
			}
		}
	}
}

type pair struct{ i, j int }

// checkDraw compares one draw against the oracle: edge sequence,
// final state, and the graphs Gnp and GnpBits build.
func checkDraw(t *testing.T, seed uint64, n int, p float64) {
	t.Helper()
	var want, got []pair
	ro := NewRNG(seed)
	gnpOracle(ro, n, p, func(i, j int) { want = append(want, pair{i, j}) })
	r := NewRNG(seed)
	r.gnpEach(n, p, func(i, j int) { got = append(got, pair{i, j}) })
	if len(got) != len(want) {
		t.Fatalf("seed %d n %d p %v: %d edges, oracle %d", seed, n, p, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("seed %d n %d p %v: edge %d = %v, oracle %v", seed, n, p, k, got[k], want[k])
		}
	}
	if r.State() != ro.State() {
		t.Fatalf("seed %d n %d p %v: final state %#x, oracle %#x", seed, n, p, r.State(), ro.State())
	}

	rg, rb := NewRNG(seed), NewRNG(seed)
	g, m := rg.Gnp(n, p), rb.GnpBits(n, p)
	if rg.State() != ro.State() || rb.State() != ro.State() {
		t.Fatalf("seed %d n %d p %v: Gnp/GnpBits end in %#x/%#x, oracle %#x", seed, n, p, rg.State(), rb.State(), ro.State())
	}
	ref := NewGraph(n)
	for _, e := range want {
		ref.AddEdge(e.i, e.j)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Adj[i][j] != ref.Adj[i][j] || m.Get(i, j) != ref.Adj[i][j] {
				t.Fatalf("seed %d n %d p %v: (%d,%d) Gnp %v GnpBits %v oracle %v",
					seed, n, p, i, j, g.Adj[i][j], m.Get(i, j), ref.Adj[i][j])
			}
		}
	}
}

// TestGnpMatchesOracle pins the lane draw to the plain loop on both
// sides of the lane threshold (n ≥ 92 draws on four lanes), at the
// densities that reach every branch: nothing drawn, the smallest
// positive p, the served p = 2/n (which is 1 at n = 2 and 2 at n = 1),
// a dense p whose hits overflow the lane buffers, and p ≥ 1.
func TestGnpMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 64, 100, 1023, 1024} {
		for _, p := range []float64{0, 5e-324, 2 / float64(n), 0.3, 1, 1.5} {
			for _, seed := range []uint64{0, 1, 2, math.MaxUint64} {
				t.Run(fmt.Sprintf("n=%d/p=%v/seed=%d", n, p, seed), func(t *testing.T) {
					if testing.Short() && n > 100 && p > 0.01 {
						t.Skip("dense large draw")
					}
					checkDraw(t, seed, n, p)
				})
			}
		}
	}
}

// TestDrawThreshold checks the integer comparison against Float64's
// at the k/2⁵³ boundaries, where u/2⁵³ < p flips.
func TestDrawThreshold(t *testing.T) {
	const one = 1 << 53
	ks := []uint64{0, 1, 2, 3, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, one - 2, one - 1, one}
	for _, k := range ks {
		at := float64(k) / one
		for _, p := range []float64{at, math.Nextafter(at, -1), math.Nextafter(at, 2), at / 2, (float64(k) + 0.5) / one} {
			thr := drawThreshold(p)
			for _, u := range []uint64{k - 1, k, k + 1, 0, one - 1} {
				if u >= one {
					continue // k-1 wrapped, or past the 53-bit range
				}
				if got, want := u < thr, float64(u)/one < p; got != want {
					t.Errorf("p = %v (k = %d), u = %d: integer says %v, float %v", p, k, u, got, want)
				}
			}
		}
	}
	for _, p := range []float64{math.NaN(), math.Inf(-1), -1, 0, math.Copysign(0, -1)} {
		if thr := drawThreshold(p); thr != 0 {
			t.Errorf("drawThreshold(%v) = %d, want 0", p, thr)
		}
	}
	for _, p := range []float64{1, 1.5, math.Inf(1)} {
		if thr := drawThreshold(p); thr != one {
			t.Errorf("drawThreshold(%v) = %d, want 2⁵³", p, thr)
		}
	}
}

// TestCharPoly derives the characteristic polynomial of step by
// Berlekamp–Massey over 128 low bits of one state sequence: that
// sequence's minimal polynomial has degree 64, so it is the
// characteristic polynomial of the 64×64 step matrix, and it must be
// the constant gnpEach jumps by.
func TestCharPoly(t *testing.T) {
	const terms = 128
	var s [terms]uint8
	x := uint64(1)
	for k := range s {
		s[k] = uint8(x & 1)
		x = step(x)
	}
	// c is the connection polynomial 1 + c₁x + … + c_L x^L, b the copy
	// from before the last length change.
	var c, b, tmp [terms + 1]uint8
	c[0], b[0] = 1, 1
	l, m := 0, 1
	for k := 0; k < terms; k++ {
		d := s[k]
		for i := 1; i <= l; i++ {
			d ^= c[i] & s[k-i]
		}
		if d == 0 {
			m++
			continue
		}
		tmp = c
		for i := 0; i+m <= terms; i++ {
			c[i+m] ^= b[i]
		}
		if 2*l <= k {
			l, b, m = k+1-l, tmp, 1
		} else {
			m++
		}
	}
	if l != 64 {
		t.Fatalf("linear complexity %d, want 64", l)
	}
	// The characteristic polynomial is the connection polynomial
	// reversed: x⁶⁴·C(1/x).
	var poly uint64
	for i := 1; i <= 64; i++ {
		poly |= uint64(c[i]) << (64 - i)
	}
	if poly != charPoly {
		t.Errorf("Berlekamp–Massey gives %#016x, charPoly is %#016x", poly, uint64(charPoly))
	}
}

// TestJumpMatchesStepping checks the polynomial jump against plain
// stepping, across the word boundary of the residue and at the jump
// gnpEach makes for G(1024, p) (130,944 = ⌈523,776/4⌉).
func TestJumpMatchesStepping(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0x9E3779B97F4A7C15, math.MaxUint64} {
		for _, n := range []uint64{0, 1, 63, 64, 65, 130944, 1 << 20} {
			want := seed
			for k := uint64(0); k < n; k++ {
				want = step(want)
			}
			if got := jump(seed, jumpPoly(n)); got != want {
				t.Errorf("seed %#x: jump by %d = %#x, stepping %#x", seed, n, got, want)
			}
		}
	}
}

// TestGnpAllocs pins that a draw allocates nothing beyond the graph it
// returns: Gnp costs what NewGraph does plus the bound g.AddEdge it
// hands the draw loop, GnpBits what NewMatrix does.
func TestGnpAllocs(t *testing.T) {
	for _, n := range []int{16, 1024} {
		p := 2 / float64(n)
		r := NewRNG(1)
		if got, want := testing.AllocsPerRun(5, func() { r.Gnp(n, p) }),
			testing.AllocsPerRun(5, func() { NewGraph(n) })+1; got > want {
			t.Errorf("Gnp(%d): %v allocs, want at most %v", n, got, want)
		}
		if got, want := testing.AllocsPerRun(5, func() { r.GnpBits(n, p) }),
			testing.AllocsPerRun(5, func() { bits.NewMatrix(n) }); got != want {
			t.Errorf("GnpBits(%d): %v allocs, NewMatrix %v", n, got, want)
		}
	}
}
