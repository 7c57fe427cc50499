package sorting

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vlsi"
)

// SortOTNBatch runs SortOTN(m, problems[p], 0) for every problem of
// the sequential adapter bb, each on the freshly Reset machine. Like
// core.Batch, the bench module's replay reads it; the next benchmark
// change deletes it.
func SortOTNBatch(bb *core.Batch, problems [][]int64) ([][]int64, []vlsi.Time) {
	if len(problems) != bb.Lanes() {
		panic(fmt.Sprintf("sorting: %d problems on a %d-lane batch", len(problems), bb.Lanes()))
	}
	out := make([][]int64, len(problems))
	times := make([]vlsi.Time, len(problems))
	bb.Each(func(p int, m *core.Machine) {
		out[p], times[p] = SortOTN(m, problems[p], 0)
	})
	return out, times
}
