package analysis

import (
	"fmt"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/matrix"
	"repro/internal/algorithms/sorting"
	"repro/internal/ccc"
	"repro/internal/cube"
	"repro/internal/layout"
	"repro/internal/mesh"
	"repro/internal/mot3d"
	"repro/internal/otc"
	"repro/internal/psn"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Seed for every experiment workload; fixed for reproducibility.
const seed = 0x0783_1983

// cycleLenFor picks the OTC cycle length for problem size n: the
// paper's log N rounded to a power of two.
func cycleLenFor(n int) int {
	l := 1 << uint(vlsi.Log2Floor(vlsi.Log2Ceil(n)))
	if l < 2 {
		l = 2
	}
	return l
}

// meshSide returns the mesh side for N elements (N must be an even
// power of two for the sweep sizes used here).
func meshSide(n int) int { return 1 << uint(vlsi.Log2Ceil(n)/2) }

// Table1Sorting regenerates Table I: sorting N numbers on all five
// networks under the given delay model (LogDelay for Table I,
// ConstantDelay for Table IV). ns must be even powers of two so the
// mesh and the bitonic layouts stay square.
func Table1Sorting(ns []int, model vlsi.DelayModel) (*Experiment, error) {
	id, claims := "Table I", SortClaims
	if model.Name() == (vlsi.ConstantDelay{}).Name() {
		id, claims = "Table IV", SortConstClaims
	}
	e := &Experiment{
		ID:    id,
		Title: fmt.Sprintf("sorting N numbers (%s model)", model.Name()),
		Notes: []string{
			"mesh runs shearsort: Θ(√N·log N) word-steps versus the cited Θ(√N) schedule; orderings unchanged (DESIGN.md)",
			"scan-ambiguous claim entries reconstructed from the prose: mesh Θ(√N) time, CCC Θ(log³ N) under log-delay",
		},
	}
	var cells []func() (Row, error)
	for _, n := range ns {
		n := n
		cfg := vlsi.Config{WordBits: vlsi.WordBitsFor(n), Model: model}
		perm := func() []int64 { return workload.NewRNG(seed + uint64(n)).Perm(n) }

		cells = append(cells, func() (Row, error) {
			mm, err := mesh.New(meshSide(n), cfg)
			if err != nil {
				return Row{}, err
			}
			sorted, t := mm.ShearSort(perm(), 0)
			if err := checkSorted(sorted, n); err != nil {
				return Row{}, fmt.Errorf("mesh: %w", err)
			}
			return Row{Network: "mesh", N: n, Area: mm.Area(), Time: t, Claim: claims["mesh"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			pm, err := psn.New(n, cfg)
			if err != nil {
				return Row{}, err
			}
			sorted, t := pm.BitonicSort(perm(), 0)
			if err := checkSorted(sorted, n); err != nil {
				return Row{}, fmt.Errorf("psn: %w", err)
			}
			return Row{Network: "psn", N: n, Area: pm.Area(), Time: t, Claim: claims["psn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			cm, err := ccc.New(n, cfg)
			if err != nil {
				return Row{}, err
			}
			sorted, t := cm.BitonicSort(perm(), 0)
			if err := checkSorted(sorted, n); err != nil {
				return Row{}, fmt.Errorf("ccc: %w", err)
			}
			return Row{Network: "ccc", N: n, Area: cm.Area(), Time: t, Claim: claims["ccc"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			om, release, err := cachedOTN(n, cfg)
			if err != nil {
				return Row{}, err
			}
			defer release()
			sorted, t := sorting.SortOTN(om, perm(), 0)
			if err := checkSorted(sorted, n); err != nil {
				return Row{}, fmt.Errorf("otn: %w", err)
			}
			return Row{Network: "otn", N: n, Area: om.Area(), Time: t, Claim: claims["otn"]}, nil
		})

		if id == "Table I" { // Section VII-D: no OTC under constant delay
			cells = append(cells, func() (Row, error) {
				l := cycleLenFor(n)
				tm, err := otc.New(n/l, l, cfg)
				if err != nil {
					return Row{}, err
				}
				sorted, t := otc.SortOTC(tm, perm(), 0)
				if err := checkSorted(sorted, n); err != nil {
					return Row{}, fmt.Errorf("otc: %w", err)
				}
				return Row{Network: "otc", N: n, Area: tm.Area(), Time: t, Claim: claims["otc"]}, nil
			})
		}
	}
	rows, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	e.Rows = rows
	return e, nil
}

func checkSorted(xs []int64, n int) error {
	if len(xs) != n {
		return fmt.Errorf("wrong output length %d", len(xs))
	}
	for i := 1; i < n; i++ {
		if xs[i-1] > xs[i] {
			return fmt.Errorf("output not sorted at %d", i)
		}
	}
	return nil
}

// Table2BoolMatMul regenerates Table II: Boolean N×N matrix products.
func Table2BoolMatMul(ns []int) (*Experiment, error) {
	e := &Experiment{
		ID:    "Table II",
		Title: "Boolean matrix multiplication (N×N)",
		Notes: []string{
			"psn/ccc run the classical Dekel–Nassimi–Sahni schedule on N³ processors, as the table's entries do; Pan's O(N^2.49) variant appears only in the prose",
			"otc row uses the Section VI block emulation (cycle length a power of two); the paper's Boolean-specialized OTC additionally shrinks area by log² N",
		},
	}
	var cells []func() (Row, error)
	for _, n := range ns {
		n := n
		// Each cell regenerates the operands from the deterministic
		// seed; BoolMatrix draws a then b, so the pair is identical to
		// the hoisted version.
		operands := func() (a, b, want [][]int64) {
			rng := workload.NewRNG(seed + uint64(n))
			a = rng.BoolMatrix(n, 0.4)
			b = rng.BoolMatrix(n, 0.4)
			return a, b, matrix.RefBoolMatMul(a, b)
		}

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			cfgN := vlsi.DefaultConfig(n * n)
			mm, err := mesh.New(n, vlsi.Config{WordBits: 2, Model: cfgN.Model})
			if err != nil {
				return Row{}, err
			}
			c, t := mm.CannonMatMul(a, b, true, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("mesh: %w", err)
			}
			return Row{Network: "mesh", N: n, Area: mm.Area(), Time: t, Claim: BoolMatMulClaims["mesh"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			pm, err := psn.New(n*n*n, vlsi.DefaultConfig(n*n*n))
			if err != nil {
				return Row{}, err
			}
			c, t := pm.DNSMatMul(a, b, true, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("psn: %w", err)
			}
			return Row{Network: "psn", N: n, Area: pm.Area(), Time: t, Claim: BoolMatMulClaims["psn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			cfgCube := vlsi.DefaultConfig(n * n * n)
			cm, err := ccc.New(n*n*n, cfgCube)
			if err != nil {
				return Row{}, err
			}
			c, t := matrix.DNSSchedule(a, b, true, cfgCube.WordBits, cm.DimTime, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("ccc: %w", err)
			}
			return Row{Network: "ccc", N: n, Area: cm.Area(), Time: t, Claim: BoolMatMulClaims["ccc"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			om, release, err := cachedMatMulMachine(n, vlsi.LogDelay{})
			if err != nil {
				return Row{}, err
			}
			defer release()
			c, t := matrix.BigMatMul(om, a, b, true, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("otn: %w", err)
			}
			return Row{Network: "otn", N: n, Area: om.Area(), Time: t, Claim: BoolMatMulClaims["otn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			l := cycleLenFor(n * n)
			tm, release, err := cachedEmulatedOTN(n*n, l, vlsi.DefaultConfig(n*n))
			if err != nil {
				return Row{}, err
			}
			defer release()
			c, t := matrix.BigMatMul(tm, a, b, true, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("otc: %w", err)
			}
			return Row{Network: "otc", N: n, Area: tm.Area(), Time: t, Claim: BoolMatMulClaims["otc"]}, nil
		})
	}
	rows, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	e.Rows = rows
	return e, nil
}

func checkMat(got, want [][]int64) error {
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("wrong product at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// Table3Components regenerates Table III: connected components of an
// N-vertex graph (adjacency-matrix representation).
func Table3Components(ns []int) (*Experiment, error) {
	e := &Experiment{
		ID:    "Table III",
		Title: "connected components of an N-vertex graph",
		Notes: []string{
			"mesh computes Boolean closure by ⌈log N⌉ systolic squarings (Θ(N log N)) instead of the cited Θ(N) Levitt–Kautz array; same area class, mesh stays last by polynomial factors",
			"psn/ccc run CONNECT as a hypercube program with per-dimension costs priced by the host network (shuffle cycles / CCC rotations and cube wires); sweeps amortize the PSN's address-bit rotation",
		},
	}
	var cells []func() (Row, error)
	for _, n := range ns {
		n := n
		cfg := vlsi.DefaultConfig(n * n)
		gen := func() (*workload.Graph, [][]int64, []int64) {
			g := workload.NewRNG(seed+uint64(n)).Gnp(n, 2.0/float64(n))
			adj := make([][]int64, n)
			for i := range adj {
				adj[i] = make([]int64, n)
				for j := range adj[i] {
					if g.Adj[i][j] {
						adj[i][j] = 1
					}
				}
			}
			return g, adj, graph.RefComponents(g)
		}

		cells = append(cells, func() (Row, error) {
			_, adj, want := gen()
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

		// PSN/CCC: CONNECT on N² processors, executed as a hypercube
		// program (internal/cube) with each dimension step priced by
		// the host network — a shuffle cycle on the PSN, a cycle
		// rotation or cube wire on the CCC.
		w := vlsi.WordBitsFor(n * n)
		cells = append(cells, func() (Row, error) {
			_, adj, want := gen()
			pm, err := psn.New(n*n, cfg)
			if err != nil {
				return Row{}, err
			}
			cubePSN, err := cube.New(n*n, w, func(int) vlsi.Time { return pm.ShuffleTime() })
			if err != nil {
				return Row{}, err
			}
			cubePSN.LoadAdjacency(adj)
			lab, t := cubePSN.Connect(n, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("psn components wrong at n=%d", n)
			}
			return Row{Network: "psn", N: n, Area: layout.PSNArea(n*n, w), Time: t, Claim: ComponentsClaims["psn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			_, adj, want := gen()
			cm, err := ccc.New(n*n, cfg)
			if err != nil {
				return Row{}, err
			}
			cubeCCC, err := cube.New(n*n, w, cm.DimTime)
			if err != nil {
				return Row{}, err
			}
			cubeCCC.LoadAdjacency(adj)
			lab, t := cubeCCC.Connect(n, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("ccc components wrong at n=%d", n)
			}
			return Row{Network: "ccc", N: n, Area: layout.CCCArea(n*n, w), Time: t, Claim: ComponentsClaims["ccc"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			g, _, want := gen()
			om, release, err := cachedOTN(n, cfg)
			if err != nil {
				return Row{}, err
			}
			defer release()
			graph.LoadGraph(om, g)
			lab, t := graph.ConnectedComponents(om, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("otn components wrong at n=%d", n)
			}
			return Row{Network: "otn", N: n, Area: om.Area(), Time: t, Claim: ComponentsClaims["otn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			g, _, want := gen()
			l := cycleLenFor(n)
			tm, release, err := cachedEmulatedOTN(n, l, cfg)
			if err != nil {
				return Row{}, err
			}
			defer release()
			graph.LoadGraph(tm, g)
			lab, t := graph.ConnectedComponents(tm, 0)
			if !graph.SamePartition(lab, want) {
				return Row{}, fmt.Errorf("otc components wrong at n=%d", n)
			}
			return Row{Network: "otc", N: n, Area: tm.Area(), Time: t, Claim: ComponentsClaims["otc"]}, nil
		})
	}
	rows, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	e.Rows = rows
	return e, nil
}

// MSTExperiment regenerates the prose claim: minimum spanning trees
// on the OTN and OTC in Θ(log⁴ N) with A·T² = Θ(N² log¹⁰ N) and
// Θ(N² log⁹ N).
func MSTExperiment(ns []int) (*Experiment, error) {
	e := &Experiment{
		ID:    "§I/§VI (MST)",
		Title: "minimum spanning tree of a weighted N-vertex graph",
	}
	var cells []func() (Row, error)
	for _, n := range ns {
		n := n
		cfg := vlsi.DefaultConfig(n * n)
		weights := func() [][]int64 { return workload.NewRNG(seed + uint64(n)).WeightMatrix(n) }

		cells = append(cells, func() (Row, error) {
			w := weights()
			wantW, wantE := graph.RefMST(w)
			om, release, err := cachedOTN(n, cfg)
			if err != nil {
				return Row{}, err
			}
			defer release()
			graph.LoadWeights(om, w)
			edges, t := graph.MinSpanningTree(om, 0)
			if err := checkMST(edges, wantW, wantE); err != nil {
				return Row{}, fmt.Errorf("otn n=%d: %w", n, err)
			}
			return Row{Network: "otn", N: n, Area: om.Area(), Time: t, Claim: MSTClaims["otn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			w := weights()
			wantW, wantE := graph.RefMST(w)
			l := cycleLenFor(n)
			tm, release, err := cachedEmulatedOTN(n, l, cfg)
			if err != nil {
				return Row{}, err
			}
			defer release()
			graph.LoadWeights(tm, w)
			edges, t := graph.MinSpanningTree(tm, 0)
			if err := checkMST(edges, wantW, wantE); err != nil {
				return Row{}, fmt.Errorf("otc n=%d: %w", n, err)
			}
			return Row{Network: "otc", N: n, Area: tm.Area(), Time: t, Claim: MSTClaims["otc"]}, nil
		})
	}
	rows, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	e.Rows = rows
	return e, nil
}

func checkMST(edges []graph.Edge, wantW int64, wantE int) error {
	var total int64
	for _, e := range edges {
		total += e.W
	}
	if len(edges) != wantE || total != wantW {
		return fmt.Errorf("forest weight %d/%d edges, want %d/%d", total, len(edges), wantW, wantE)
	}
	return nil
}

// FigureAreas regenerates the geometry behind Figs. 1–3: measured
// layout areas of the OTN and OTC across a sweep, confirming
// Θ(N² log² N) vs Θ(N²).
func FigureAreas(ks []int) (*Experiment, error) {
	e := &Experiment{
		ID:    "Figs. 1–3",
		Title: "layout areas: (K×K)-OTN vs (K/l × K/l)-OTC over the same base",
	}
	for _, k := range ks {
		w := vlsi.WordBitsFor(k * k)
		otn, err := layout.MeasureOTN(k, w)
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{Network: "otn", N: k, Area: otn.Area(), Time: 1, Claim: Claim{Area: vlsi.Poly(2, 2), Time: vlsi.Poly(0, 0), AT2: vlsi.Poly(2, 2)}})
		l := cycleLenFor(k)
		geom, err := layout.MeasureOTC(k/l, l, w)
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{Network: "otc", N: k, Area: geom.Area(), Time: 1, Claim: Claim{Area: vlsi.Poly(2, 0), Time: vlsi.Poly(0, 0), AT2: vlsi.Poly(2, 0)}})
	}
	return e, nil
}

// PipelineExperiment regenerates the Section VIII pipelining claim: a
// stream of sort problems through one OTN, with the steady-state
// output interval collapsing to Θ(log N) against a Θ(log² N) single-
// problem latency.
func PipelineExperiment(n, batches int) (latency, steady vlsi.Time, err error) {
	m, release, err := cachedOTN(n, vlsi.DefaultConfig(n*n))
	if err != nil {
		return 0, 0, err
	}
	defer release()
	rng := workload.NewRNG(seed)
	work := make([][]int64, batches)
	for b := range work {
		work[b] = rng.Perm(n)
	}
	res := sorting.SortOTNPipelined(m, work, m.WordTime())
	for b, r := range res {
		if err := checkSorted(r.Sorted, n); err != nil {
			return 0, 0, fmt.Errorf("batch %d: %w", b, err)
		}
	}
	latency = res[0].Done
	steady = res[batches-1].Done - res[batches-2].Done
	return latency, steady, nil
}

// MatMul3DStudy compares the Section VII-B discussion point: the
// three-dimensional mesh of trees (Leighton's generalization) against
// the paper's two-dimensional Table II configuration on the same
// Boolean products — the 3D network needs no operand realignment and
// reaches its Θ(N⁴)-area, polylog-time point directly.
func MatMul3DStudy(ns []int) (*Experiment, error) {
	e := &Experiment{
		ID:    "§VII-B (3D mesh of trees)",
		Title: "Boolean matrix multiplication: 2D (Table II) vs 3D mesh of trees",
		Notes: []string{
			"Leighton's figures (area N⁴, time log N, A·T² N⁴ log² N) are for word-parallel links; bit-serial operation adds the same log factor both arrangements pay",
		},
	}
	var cells []func() (Row, error)
	for _, n := range ns {
		n := n
		operands := func() (a, b, want [][]int64) {
			rng := workload.NewRNG(seed + uint64(n))
			a = rng.BoolMatrix(n, 0.4)
			b = rng.BoolMatrix(n, 0.4)
			return a, b, matrix.RefBoolMatMul(a, b)
		}

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			om, release, err := cachedMatMulMachine(n, vlsi.LogDelay{})
			if err != nil {
				return Row{}, err
			}
			defer release()
			c, t := matrix.BigMatMul(om, a, b, true, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("otn-2d: %w", err)
			}
			return Row{Network: "otn-2d", N: n, Area: om.Area(), Time: t, Claim: BoolMatMulClaims["otn"]}, nil
		})

		cells = append(cells, func() (Row, error) {
			a, b, want := operands()
			m3, err := mot3d.New(n, vlsi.DefaultConfig(n*n*n))
			if err != nil {
				return Row{}, err
			}
			c, t := m3.MatMul(a, b, true, 0)
			if err := checkMat(c, want); err != nil {
				return Row{}, fmt.Errorf("mot3d: %w", err)
			}
			return Row{
				Network: "mot3d", N: n, Area: m3.Area(), Time: t,
				Claim: Claim{Area: vlsi.Poly(4, 0), Time: vlsi.Poly(0, 1), AT2: vlsi.Poly(4, 2)},
			}, nil
		})
	}
	rows, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	e.Rows = rows
	return e, nil
}
