package packed

import (
	"reflect"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/workload"
)

// TestIncrementalMatchesScalarIncremental pins the streamed analogue
// of the engine contract: per batch, the packed incremental engine
// returns exactly the labels, completion bit-times and batch stats of
// the scalar incremental path, and both agree with the oracle.
func TestIncrementalMatchesScalarIncremental(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		for _, scaled := range []bool{false, true} {
			r := workload.NewRNG(uint64(n)*13 + 1)
			g := r.Gnp(n, 2.0/float64(n))
			m := newMachine(t, n, scaled)
			sInc, sT := graph.NewIncremental(m, g, 0)
			e, err := EngineFor(n, m.Cfg, scaled)
			if err != nil {
				t.Fatal(err)
			}
			pInc, pT := NewIncremental(e, g, 0)
			if pT != sT {
				t.Fatalf("n=%d scaled=%v: initial time packed %d, scalar %d", n, scaled, pT, sT)
			}
			o := workload.NewOracle(g)
			stream := g.Clone()
			for step := 0; step < 25; step++ {
				batch := r.UpdateBatch(stream, 1+r.Intn(3))
				o.Apply(batch)
				sL, sT2 := sInc.ApplyBatch(batch, sT)
				pL, pT2 := pInc.ApplyBatch(batch, pT)
				if pT2 != sT2 {
					t.Fatalf("n=%d scaled=%v step %d: packed time %d, scalar %d", n, scaled, step, pT2, sT2)
				}
				if !reflect.DeepEqual(pL, sL) {
					t.Fatalf("n=%d scaled=%v step %d: packed labels %v, scalar %v", n, scaled, step, pL, sL)
				}
				if want := o.Labels(); !reflect.DeepEqual(pL, want) {
					t.Fatalf("n=%d scaled=%v step %d: labels %v, oracle %v", n, scaled, step, pL, want)
				}
				if sInc.Stats() != pInc.Stats() {
					t.Fatalf("n=%d scaled=%v step %d: stats %+v vs %+v", n, scaled, step, sInc.Stats(), pInc.Stats())
				}
				sT, pT = sT2, pT2
			}
		}
	}
}

// TestIncrementalPixelParity runs the mesh-native pixel workload
// through both engines at a grid size the scalar machine can hold.
func TestIncrementalPixelParity(t *testing.T) {
	const side = 8
	n := side * side
	r := workload.NewRNG(41)
	im := r.RandomImage(side, side, 0.5)
	g := im.Graph()
	m := newMachine(t, n, false)
	sInc, sT := graph.NewIncremental(m, g, 0)
	e, err := EngineFor(n, m.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	pInc, pT := NewIncremental(e, g, 0)
	if pT != sT {
		t.Fatalf("initial time packed %d, scalar %d", pT, sT)
	}
	o := workload.NewOracle(g)
	for step := 0; step < 30; step++ {
		batch := r.PixelBatch(im, 1+r.Intn(3))
		o.Apply(batch)
		sL, sT2 := sInc.ApplyBatch(batch, sT)
		pL, pT2 := pInc.ApplyBatch(batch, pT)
		if pT2 != sT2 || !reflect.DeepEqual(pL, sL) {
			t.Fatalf("step %d: packed diverged from scalar (t %d vs %d)", step, pT2, sT2)
		}
		if want := o.Labels(); !reflect.DeepEqual(pL, want) {
			t.Fatalf("step %d: labels diverged from oracle", step)
		}
		sT, pT = sT2, pT2
	}
}
