package analysis

import (
	"fmt"

	"repro/internal/algorithms/graph"
	"repro/internal/mesh"
	"repro/internal/packed"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// packedCrossCheckMaxN bounds the sizes at which a packed cell also
// builds the scalar machine and pins exact time/label equality in
// line. Past this the scalar machine is too expensive to build per
// sweep (a K=1024 OTN is ~2·10⁵ routers and hundreds of MB of banks);
// the packed engine's exactness there rests on the differential fuzz
// at every overlapping N plus the translation-invariant fused tables.
const packedCrossCheckMaxN = 64

// PackedScalingStudy extends Table III far past the paper's own table
// (the paper stops where hand analysis was tractable; our scalar
// sweeps stop at N=64): connected components at every requested N —
// N ∈ {16 … 1024} in the committed experiment — on the packed OTN
// engine, the packed Thompson-scaled OTN engine, and the mesh
// baseline. The A·T² columns are what Table III's asymptotic claims
// predict; at N=1024 the OTN/mesh separation is two or more orders of
// magnitude, which no N=64 table can show.
//
// Every cell checks its labels against the union-find reference; the
// OTN cells additionally pin exact bit-time and label equality
// against the scalar machine program up to packedCrossCheckMaxN.
func PackedScalingStudy(ns []int) (*Experiment, error) {
	e := &Experiment{
		ID:    "Table III (packed, extended)",
		Title: "connected components at scale: bit-packed Boolean engine, N up to 1024",
		Notes: []string{
			"otn-packed replays fused whole-program schedules over uint64-packed adjacency rows; bit-times are identical to the scalar machine program (differential fuzz + in-line cross-check at N ≤ 64)",
			"the mesh baseline computes Boolean closure by systolic squarings; its Θ(N log N) time keeps it last in A·T² by polynomial factors, and the gap widens exactly as Table III predicts",
		},
	}
	var cells []func() (Row, error)
	for _, n := range ns {
		n := n
		cfg := vlsi.DefaultConfig(n * n)
		gen := func() (*workload.Graph, []int64) {
			g := workload.NewRNG(seed+uint64(n)).Gnp(n, 2.0/float64(n))
			return g, graph.RefComponents(g)
		}

		cells = append(cells, func() (Row, error) {
			g, want := gen()
			eng, err := packed.EngineFor(n, cfg, false)
			if err != nil {
				return Row{}, err
			}
			lab, t := eng.Components(g, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("packed otn components wrong at n=%d", n)
			}
			if n <= packedCrossCheckMaxN {
				om, release, err := cachedOTN(n, cfg)
				if err != nil {
					return Row{}, err
				}
				defer release()
				graph.LoadGraph(om, g)
				slab, st := graph.ConnectedComponents(om, 0)
				if err := om.Err(); err != nil {
					return Row{}, err
				}
				if st != t {
					return Row{}, fmt.Errorf("packed otn time %d != scalar %d at n=%d", t, st, n)
				}
				for v := range slab {
					if slab[v] != lab[v] {
						return Row{}, fmt.Errorf("packed otn label[%d] diverges from scalar at n=%d", v, n)
					}
				}
			}
			return Row{Network: "otn-packed", N: n, Area: eng.Area(), Time: t, Claim: ComponentsClaims["otn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			g, want := gen()
			eng, err := packed.EngineFor(n, cfg, true)
			if err != nil {
				return Row{}, err
			}
			lab, t := eng.Components(g, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("packed scaled otn components wrong at n=%d", n)
			}
			return Row{Network: "otn-scaled-packed", N: n, Area: eng.Area(), Time: t, Claim: ComponentsClaims["otn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			g, want := gen()
			adj := make([][]int64, n)
			for i := range adj {
				adj[i] = make([]int64, n)
				for j := range adj[i] {
					if g.Adj[i][j] {
						adj[i][j] = 1
					}
				}
			}
			mm, err := mesh.New(n, cfg)
			if err != nil {
				return Row{}, err
			}
			lab, t := mm.ConnectedComponents(adj, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("mesh components wrong at n=%d", n)
			}
			return Row{Network: "mesh", N: n, Area: mm.Area(), Time: t, Claim: ComponentsClaims["mesh"]}, nil
		})
	}
	rows, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	e.Rows = rows
	return e, nil
}
