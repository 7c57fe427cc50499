package main

// The incremental-labeling benchmark entries.
//
// The suite entries pin streamed labeling in the regression baseline:
// IncrementalComponents/n=N/b=B applies one B-pixel-flip batch to a
// maintained labeling, RecomputeComponents/n=N labels the same grid
// graph from scratch on the packed engine. Their simulated bit-times
// are exact model outputs and gate in -compare like every other
// entry; the ns/op ratio between them at N=1024, B=1 is one of
// -compare's hostFloors.

import (
	"fmt"
	"testing"

	orthotrees "repro"
	"repro/internal/packed"
	"repro/internal/workload"
)

// incrementalSizes and incrementalBatches are the suite axes, and the
// incremental artefact's default sweep: grid vertex counts (perfect
// squares, legal packed sizes) × pixel flips per batch.
var (
	incrementalSizes   = []int{256, 1024}
	incrementalBatches = []int{1, 16, 256}
)

func init() {
	for _, n := range incrementalSizes {
		for _, bsz := range incrementalBatches {
			suite = append(suite, suiteDef{
				name: fmt.Sprintf("IncrementalComponents/n=%d/b=%d", n, bsz),
				run:  incrementalBench(n, bsz),
			})
		}
		suite = append(suite, suiteDef{
			name: fmt.Sprintf("RecomputeComponents/n=%d", n),
			run:  recomputeGridBench(n),
		})
	}
}

// benchImage is the deterministic half-density grid image shared by
// the incremental and recompute entries at a given size, so the costs
// they record describe the same instance.
func benchImage(n int) *workload.Image {
	side := 1
	for side*side < n {
		side++
	}
	return workload.NewRNG(uint64(7+n)).RandomImage(side, side, 0.5)
}

// flipBatches picks k distinct pixels of im and returns the forward
// batch (flipping them in order) and its exact inverse (flipping them
// back in reverse order). Applying fwd then inv restores both the
// image and the adjacency graph, so a benchmark can repeat the pair
// forever with every forward batch hitting an identical pre-state —
// which is what makes the recorded simulated duration deterministic.
// The first pick must have an on 4-neighbour, so fwd is never the
// empty batch (an isolated flip emits no edge updates and would price
// the engine's no-op path instead of a real delta).
func flipBatches(im *workload.Image, k int) (fwd, inv []workload.EdgeUpdate) {
	rng := workload.NewRNG(uint64(29 + k))
	n := im.R * im.C
	picked := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(picked) < k {
		p := rng.Intn(n)
		if seen[p] {
			continue
		}
		if len(picked) == 0 && !hasOnNeighbour(im, p) {
			continue
		}
		seen[p] = true
		picked = append(picked, p)
		fwd = append(fwd, im.Flip(p)...)
	}
	for i := len(picked) - 1; i >= 0; i-- {
		inv = append(inv, im.Flip(picked[i])...)
	}
	return fwd, inv
}

func hasOnNeighbour(im *workload.Image, p int) bool {
	i, j := p/im.C, p%im.C
	return (j > 0 && im.On[p-1]) || (j+1 < im.C && im.On[p+1]) ||
		(i > 0 && im.On[p-im.C]) || (i+1 < im.R && im.On[p+im.C])
}

// incrementalBench measures one streamed batch against a maintained
// labeling. One op is a forward batch plus its inverse (state must be
// restored for the next iteration), so the per-batch host cost is
// NsPerOp/2, which the hostFloors row accounts for. The recorded
// bit-times are the forward batch's alone.
func incrementalBench(n, bsz int) func(b *testing.B, sim simMap) {
	return func(b *testing.B, sim simMap) {
		eng, err := packed.EngineFor(n, orthotrees.DefaultConfig(n*n), false)
		if err != nil {
			b.Fatal(err)
		}
		im := benchImage(n)
		inc, _ := packed.NewIncremental(eng, im.Graph(), 0)
		fwd, inv := flipBatches(im, bsz)
		var done orthotrees.Time
		var affected int
		timed(b, func() {
			_, done = inc.ApplyBatch(fwd, 0)
			affected = inc.Stats().Affected
			inc.ApplyBatch(inv, 0)
		})
		sim["incremental/bit-times"] = float64(done)
		sim["incremental/affected"] = float64(affected)
	}
}

// recomputeGridBench labels the same grid graph from scratch — the
// cost a caller pays per batch without the incremental engine.
func recomputeGridBench(n int) func(b *testing.B, sim simMap) {
	return func(b *testing.B, sim simMap) {
		eng, err := packed.EngineFor(n, orthotrees.DefaultConfig(n*n), false)
		if err != nil {
			b.Fatal(err)
		}
		g := benchImage(n).Graph()
		var done orthotrees.Time
		timed(b, func() { _, done = eng.Components(g, 0) })
		sim["components/bit-times"] = float64(done)
		sim["components/area"] = float64(eng.Area())
	}
}
