package main

// The incremental-labeling benchmark entries and the -incremental mode.
//
// The suite entries pin the streamed-labeling tentpole in the
// regression baseline: IncrementalComponents/n=N/b=B applies one
// B-pixel-flip batch to a maintained labeling, RecomputeComponents/n=N
// labels the same grid graph from scratch on the packed engine. Their
// simulated bit-times are exact model outputs and gate in -compare
// like every other entry; the ns/op ratio between them is the
// perf headline -incremental prints and checks (see incrementalMode).

import (
	"fmt"
	"os"
	"testing"

	orthotrees "repro"
	"repro/internal/packed"
	"repro/internal/workload"
)

// incrementalSizes and incrementalBatches are the suite axes: grid
// vertex counts (perfect squares, legal packed sizes) × pixel flips
// per batch.
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
// NsPerOp/2 — incrementalMode and the Makefile headline divide
// accordingly. The recorded bit-times are the forward batch's alone.
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

// incrementalMode is -incremental: the simulated-cost study (labels
// checked bit-identical to a full recompute after every batch), then
// the host-cost table, then the headline gate — at the largest swept
// size, a single-pixel incremental batch must be at least 10x cheaper
// in host time than a full recompute. Returns false when the gate
// fails.
func incrementalMode(sizes, format string) bool {
	ns := incrementalSizes
	if sizes != "" {
		ns = parseSizes(sizes)
	}
	s, err := orthotrees.IncrementalStudy(ns, incrementalBatches, 8, 1983)
	if err != nil {
		fatalf("incremental study: %v", err)
	}
	if format == "markdown" {
		fmt.Println(s.Markdown())
	} else {
		fmt.Println(s.Render())
	}

	fmt.Printf("%-10s %7s %16s %18s %10s\n",
		"N", "batch", "recompute ns", "incremental ns", "ratio")
	type cell struct{ n, bsz int }
	ratios := map[cell]float64{}
	for _, n := range ns {
		rec := measure(fmt.Sprintf("RecomputeComponents/n=%d", n), recomputeGridBench(n))
		for _, bsz := range incrementalBatches {
			inc := measure(fmt.Sprintf("IncrementalComponents/n=%d/b=%d", n, bsz), incrementalBench(n, bsz))
			perBatch := inc.NsPerOp / 2 // one op = forward batch + inverse
			ratio := 0.0
			if perBatch > 0 {
				ratio = float64(rec.NsPerOp) / float64(perBatch)
			}
			ratios[cell{n, bsz}] = ratio
			fmt.Printf("%-10d %7d %16d %18d %9.1fx\n", n, bsz, rec.NsPerOp, perBatch, ratio)
		}
	}

	big := ns[0]
	for _, n := range ns {
		if n > big {
			big = n
		}
	}
	got := ratios[cell{big, 1}]
	if got < 10 {
		fmt.Fprintf(os.Stderr, "incremental: FAILED — single-flip batch at N=%d only %.1fx cheaper than recompute (want >= 10x)\n", big, got)
		return false
	}
	fmt.Printf("\nincremental: single-flip batch at N=%d is %.1fx cheaper than a full recompute (gate: >= 10x)\n", big, got)
	return true
}
