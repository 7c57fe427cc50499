package graph

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestClosureOTNMatchesReference(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		for seed := uint64(0); seed < 3; seed++ {
			m, err := core.NewDefault(n, n*n)
			if err != nil {
				t.Fatal(err)
			}
			g := workload.NewRNG(seed*977+uint64(n)).Gnp(n, 2.0/float64(n))
			LoadGraph(m, g)
			got, elapsed := ClosureOTN(m, 0)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			if elapsed <= 0 {
				t.Fatalf("n=%d seed=%d: non-positive closure time %d", n, seed, elapsed)
			}
			adj := make([][]int64, n)
			for v := range adj {
				adj[v] = make([]int64, n)
				for u := range adj[v] {
					if g.Adj[v][u] {
						adj[v][u] = 1
					}
				}
			}
			want := RefClosure(adj)
			for v := 0; v < n; v++ {
				for u := 0; u < n; u++ {
					if got[v][u] != want[v][u] {
						t.Fatalf("n=%d seed=%d: closure[%d][%d] = %d, want %d", n, seed, v, u, got[v][u], want[v][u])
					}
					// The machine's adj register was updated in place.
					if m.Get(regAdj, v, u) != want[v][u] {
						t.Fatalf("n=%d seed=%d: adj register (%d,%d) = %d, want %d", n, seed, v, u, m.Get(regAdj, v, u), want[v][u])
					}
				}
			}
			if !SamePartition(ComponentsFromClosure(got), RefComponents(g)) {
				t.Fatalf("n=%d seed=%d: closure-derived labels disagree with union-find", n, seed)
			}
		}
	}
}
