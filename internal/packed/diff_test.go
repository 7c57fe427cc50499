package packed

import (
	"reflect"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/core"
	"repro/internal/fault"
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

				// Adapter on a fresh machine must pick packed and agree.
				m2 := newMachine(t, n, scaled)
				graph.LoadGraph(m2, g)
				if !Eligible(m2) {
					t.Fatalf("n=%d scaled=%v: healthy loaded machine not eligible", n, scaled)
				}
				aLabels, aT, usedPacked := RunComponents(m2, 0)
				if !usedPacked {
					t.Fatalf("n=%d scaled=%v: adapter fell back on a healthy machine", n, scaled)
				}
				if aT != wantT || !reflect.DeepEqual(aLabels, wantLabels) {
					t.Fatalf("n=%d scaled=%v: adapter packed run diverged", n, scaled)
				}
				if h := m2.Health(); h != nil {
					t.Fatalf("n=%d scaled=%v: packed run grew a health ledger: %+v", n, scaled, h)
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
			if !reflect.DeepEqual(gotR.ToRows(), wantR) {
				t.Fatalf("n=%d scaled=%v: packed closure matrix diverged", n, scaled)
			}

			m2 := newMachine(t, n, scaled)
			graph.LoadGraph(m2, g)
			aR, aT, usedPacked := RunClosure(m2, 0)
			if !usedPacked || aT != wantT || !reflect.DeepEqual(aR, wantR) {
				t.Fatalf("n=%d scaled=%v: adapter closure run diverged (packed=%v)", n, scaled, usedPacked)
			}
		}
	}
}

// TestFaultyFallsBackToScalar pins the degraded contract: with a
// fault plan attached the adapter must refuse the packed engine and
// produce exactly the scalar run's labels, time and health counters.
func TestFaultyFallsBackToScalar(t *testing.T) {
	const n = 16
	for seed := uint64(1); seed <= 4; seed++ {
		g := workload.NewRNG(seed).Gnp(n, 2.0/float64(n))
		plan := fault.Random(n, 3, seed)

		ref := newMachine(t, n, false)
		if err := ref.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		graph.LoadGraph(ref, g)
		wantLabels, wantT := graph.ConnectedComponents(ref, 0)
		wantErr := ref.Err()

		m := newMachine(t, n, false)
		if err := m.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		graph.LoadGraph(m, g)
		if Eligible(m) {
			t.Fatalf("seed=%d: faulty machine reported eligible", seed)
		}
		gotLabels, gotT, usedPacked := RunComponents(m, 0)
		if usedPacked {
			t.Fatalf("seed=%d: adapter used packed engine on a faulty machine", seed)
		}
		if gotT != wantT {
			t.Fatalf("seed=%d: fallback time %d, scalar %d", seed, gotT, wantT)
		}
		if (m.Err() == nil) != (wantErr == nil) {
			t.Fatalf("seed=%d: fallback err %v, scalar %v", seed, m.Err(), wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(gotLabels, wantLabels) {
			t.Fatalf("seed=%d: fallback labels %v, scalar %v", seed, gotLabels, wantLabels)
		}
		if !reflect.DeepEqual(m.Health(), ref.Health()) {
			t.Fatalf("seed=%d: fallback health %+v, scalar %+v", seed, m.Health(), ref.Health())
		}
	}
}

// FuzzPackedDifferential is the satellite differential fuzz: random
// Boolean op streams (components/closure interleavings) × fault
// plans, packed adapter vs pure-scalar machine, asserting identical
// simulated bit-times, results and Health counters. Runs in the
// race-detector pass of `make race`.
func FuzzPackedDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(1))
	f.Add(uint64(2), uint8(16), uint8(2), uint8(2))
	f.Add(uint64(3), uint8(4), uint8(0), uint8(3))
	f.Add(uint64(9), uint8(32), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rawN, faults, ops uint8) {
		n := 4 << (int(rawN) % 4) // 4, 8, 16, 32
		nFaults := int(faults) % 5
		scaled := seed%2 == 1

		plan := fault.New(0)
		if nFaults > 0 {
			plan = fault.Random(n, nFaults, seed)
		}
		g := workload.NewRNG(seed).Gnp(n, 2.0/float64(n))

		ref := newMachine(t, n, scaled)
		m := newMachine(t, n, scaled)
		for _, mm := range []*core.Machine{ref, m} {
			if err := mm.InjectFaults(plan); err != nil {
				t.Fatal(err)
			}
			graph.LoadGraph(mm, g)
		}

		// A short op stream: each step runs components or closure on
		// both sides, carrying the completion time forward.
		rel := vlsi.Time(0)
		for step := 0; step < 1+int(ops)%3; step++ {
			ref.Reset()
			m.Reset()
			if (int(ops)+step)%2 == 0 {
				wantL, wantT := graph.ConnectedComponents(ref, rel)
				gotL, gotT, usedPacked := RunComponents(m, rel)
				if usedPacked != (nFaults == 0) {
					t.Fatalf("step %d: packed=%v with %d faults", step, usedPacked, nFaults)
				}
				if gotT != wantT {
					t.Fatalf("step %d: time %d, scalar %d", step, gotT, wantT)
				}
				if ref.Err() == nil && !reflect.DeepEqual(gotL, wantL) {
					t.Fatalf("step %d: labels %v, scalar %v", step, gotL, wantL)
				}
				rel = wantT
			} else {
				// Closure mutates adj in place on the scalar side; to
				// keep both sides' inputs identical, run it on healthy
				// machines only via the packed/scalar pair and reload
				// afterwards.
				if nFaults == 0 {
					wantR, wantT := graph.ClosureOTN(ref, rel)
					gotR, gotT, usedPacked := RunClosure(m, rel)
					if !usedPacked {
						t.Fatalf("step %d: closure fell back on healthy machine", step)
					}
					if gotT != wantT || !reflect.DeepEqual(gotR, wantR) {
						t.Fatalf("step %d: closure diverged", step)
					}
					rel = wantT
					graph.LoadGraph(ref, g)
					graph.LoadGraph(m, g)
				}
			}
			if (ref.Err() == nil) != (m.Err() == nil) {
				t.Fatalf("step %d: sticky errors diverged: %v vs %v", step, ref.Err(), m.Err())
			}
			if ref.Err() != nil {
				break
			}
		}
		if !reflect.DeepEqual(m.Health(), ref.Health()) {
			t.Fatalf("health diverged: %+v vs %+v", m.Health(), ref.Health())
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
