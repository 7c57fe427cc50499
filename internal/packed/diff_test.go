package packed

import (
	"reflect"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// newMachine builds a fresh healthy machine of the given flavour.
func newMachine(t testing.TB, n int, scaled bool) *core.Machine {
	t.Helper()
	cfg := vlsi.Config{WordBits: vlsi.WordBitsFor(n * n), Model: vlsi.LogDelay{}}
	var m *core.Machine
	var err error
	if scaled {
		m, err = core.NewScaled(n, cfg)
	} else {
		m, err = core.New(n, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestComponentsMatchesScalar pins the tentpole contract exactly:
// packed labels and completion bit-times equal the scalar program's
// at every overlapping N, on plain and scaled machines, across edge
// densities (empty graph, sparse Gnp, complete graph).
func TestComponentsMatchesScalar(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for _, scaled := range []bool{false, true} {
			for _, density := range []float64{0, 2.0 / float64(n), 0.5, 1} {
				g := workload.NewRNG(uint64(n)*31+uint64(density*100)).Gnp(n, density)
				m := newMachine(t, n, scaled)
				graph.LoadGraph(m, g)
				wantLabels, wantT := graph.ConnectedComponents(m, 0)
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}

				e, err := EngineFor(n, m.Cfg, scaled)
				if err != nil {
					t.Fatal(err)
				}
				gotLabels, gotT := e.Components(g, 0)
				if gotT != wantT {
					t.Fatalf("n=%d scaled=%v p=%.2f: packed time %d, scalar %d", n, scaled, density, gotT, wantT)
				}
				if !reflect.DeepEqual(gotLabels, wantLabels) {
					t.Fatalf("n=%d scaled=%v p=%.2f: packed labels %v, scalar %v", n, scaled, density, gotLabels, wantLabels)
				}
				if e.Area() != m.Area() {
					t.Fatalf("n=%d scaled=%v: engine area %d, machine %d", n, scaled, e.Area(), m.Area())
				}
			}
		}
	}
}

// TestClosureMatchesScalar does the same for the closure program.
func TestClosureMatchesScalar(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, scaled := range []bool{false, true} {
			g := workload.NewRNG(uint64(n)*977).Gnp(n, 2.0/float64(n))
			m := newMachine(t, n, scaled)
			graph.LoadGraph(m, g)
			wantR, wantT := graph.ClosureOTN(m, 0)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}

			e, err := EngineFor(n, m.Cfg, scaled)
			if err != nil {
				t.Fatal(err)
			}
			gotR, gotT := e.Closure(g, 0)
			if gotT != wantT {
				t.Fatalf("n=%d scaled=%v: packed closure time %d, scalar %d", n, scaled, gotT, wantT)
			}
			if !gotR.Equal(bits.FromRows(wantR)) {
				t.Fatalf("n=%d scaled=%v: packed closure matrix diverged", n, scaled)
			}
		}
	}
}

// FuzzPackedDifferential drives random Boolean op streams
// (components/closure interleavings) through the packed engine and
// the scalar programs on a healthy plain or scaled machine, carrying
// the completion time forward, and asserts identical simulated
// bit-times and results. Runs in the race-detector pass of
// `make race`.
func FuzzPackedDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(1))
	f.Add(uint64(2), uint8(16), uint8(2))
	f.Add(uint64(3), uint8(4), uint8(3))
	f.Add(uint64(9), uint8(32), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rawN, ops uint8) {
		n := 4 << (int(rawN) % 4) // 4, 8, 16, 32
		scaled := seed%2 == 1
		g := workload.NewRNG(seed).Gnp(n, 2.0/float64(n))

		ref := newMachine(t, n, scaled)
		graph.LoadGraph(ref, g)
		e, err := EngineFor(n, ref.Cfg, scaled)
		if err != nil {
			t.Fatal(err)
		}

		rel := vlsi.Time(0)
		for step := 0; step < 1+int(ops)%3; step++ {
			ref.Reset()
			if (int(ops)+step)%2 == 0 {
				wantL, wantT := graph.ConnectedComponents(ref, rel)
				gotL, gotT := e.ComponentsPacked(PackGraph(g), rel)
				if gotT != wantT || !reflect.DeepEqual(gotL, wantL) {
					t.Fatalf("step %d: components (t=%d) %v, scalar (t=%d) %v", step, gotT, gotL, wantT, wantL)
				}
				rel = wantT
			} else {
				// The scalar closure rewrites adj in place; reload it
				// so the next step starts from g again.
				wantR, wantT := graph.ClosureOTN(ref, rel)
				gotR, gotT := e.Closure(g, rel)
				if gotT != wantT || !gotR.Equal(bits.FromRows(wantR)) {
					t.Fatalf("step %d: closure diverged (t=%d, scalar t=%d)", step, gotT, wantT)
				}
				rel = wantT
				graph.LoadGraph(ref, g)
			}
			if err := ref.Err(); err != nil {
				t.Fatalf("step %d: healthy scalar machine failed: %v", step, err)
			}
		}
	})
}

// TestGnpBitsMatchesPackedGnp pins the packed G(n, p) draw the server's
// packed jobs use: GnpBits must give exactly PackGraph(Gnp(...)) and
// leave the RNG where Gnp leaves it.
func TestGnpBitsMatchesPackedGnp(t *testing.T) {
	for _, n := range []int{64, 1024} {
		for seed := uint64(1); seed <= 20; seed++ {
			p := 2.0 / float64(n)
			ra, rb := workload.NewRNG(seed), workload.NewRNG(seed)
			want := PackGraph(ra.Gnp(n, p))
			if got := rb.GnpBits(n, p); !got.Equal(want) {
				t.Fatalf("n=%d seed=%d: GnpBits differs from PackGraph(Gnp)", n, seed)
			}
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Fatalf("n=%d seed=%d: next draw %d after Gnp, %d after GnpBits", n, seed, a, b)
			}
		}
	}
}
