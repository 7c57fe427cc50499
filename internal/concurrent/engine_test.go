package concurrent

import (
	"context"
	"errors"
	"testing"

	"repro/internal/layout"
	"repro/internal/tree"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

func geom(t *testing.T, k int) (*layout.TreeGeom, vlsi.Config) {
	t.Helper()
	w := vlsi.WordBitsFor(k * k)
	o, err := layout.BuildOTN(k, w)
	if err != nil {
		t.Fatal(err)
	}
	return o.RowTree, vlsi.Config{WordBits: w, Model: vlsi.LogDelay{}}
}

func TestNewValidation(t *testing.T) {
	g, cfg := geom(t, 4)
	if _, err := New(g, vlsi.Config{WordBits: 0, Model: cfg.Model}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := New(&layout.TreeGeom{K: 3, EdgeLen: make([]int, 6)}, cfg); err == nil {
		t.Error("bad geometry accepted")
	}
}

// TestBroadcastMatchesRouter is the cross-validation the design calls
// for: a contention-free broadcast must produce bit-identical arrival
// times in the goroutine engine and the deterministic router.
func TestBroadcastMatchesRouter(t *testing.T) {
	for _, k := range []int{4, 16, 64} {
		g, cfg := geom(t, k)
		eng, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rtr, err := tree.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vals, times, err := eng.Broadcast(context.Background(), 42, 17)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rtr.Broadcast(17)
		for j := 0; j < k; j++ {
			if vals[j] != 42 {
				t.Fatalf("K=%d: leaf %d received %d, want 42", k, j, vals[j])
			}
			if times[j] != want[j] {
				t.Fatalf("K=%d: leaf %d time %d (concurrent) vs %d (router)",
					k, j, times[j], want[j])
			}
		}
	}
}

// TestReduceMatchesRouter checks timing equality of the combining
// ascent and the functional correctness of SUM.
func TestReduceMatchesRouter(t *testing.T) {
	for _, k := range []int{4, 16, 64} {
		g, cfg := geom(t, k)
		eng, _ := New(g, cfg)
		rtr, _ := tree.New(g, cfg)
		vals := workload.NewRNG(uint64(k)).Ints(k, 100)
		rels := make([]vlsi.Time, k)
		for j := range rels {
			rels[j] = vlsi.Time(j % 5)
		}
		gotVal, gotT, err := eng.Reduce(context.Background(), vals, rels, Sum)
		if err != nil {
			t.Fatal(err)
		}
		wantT := rtr.Reduce(rels)
		var wantVal int64
		for _, v := range vals {
			wantVal += v
		}
		if gotVal != wantVal {
			t.Errorf("K=%d: sum = %d, want %d", k, gotVal, wantVal)
		}
		if gotT != wantT {
			t.Errorf("K=%d: reduce time %d (concurrent) vs %d (router)", k, gotT, wantT)
		}
	}
}

func TestReduceMin(t *testing.T) {
	g, cfg := geom(t, 16)
	eng, _ := New(g, cfg)
	vals := workload.NewRNG(5).Ints(16, 1000)
	min := vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	got, _, err := eng.Reduce(context.Background(), vals, make([]vlsi.Time, 16), Min)
	if err != nil {
		t.Fatal(err)
	}
	if got != min {
		t.Errorf("min = %d, want %d", got, min)
	}
}

func TestReduceArityError(t *testing.T) {
	g, cfg := geom(t, 8)
	eng, _ := New(g, cfg)
	_, _, err := eng.Reduce(context.Background(), make([]int64, 3), make([]vlsi.Time, 3), Sum)
	var ae *ArityError
	if !errors.As(err, &ae) {
		t.Fatalf("want *ArityError, got %v", err)
	}
	if ae.Got != 3 || ae.Want != 8 {
		t.Errorf("ArityError = %+v", ae)
	}
}

func TestCombineApply(t *testing.T) {
	if v := Sum.apply(3, 4); v != 7 {
		t.Errorf("sum = %d", v)
	}
	if v := Min.apply(3, 4); v != 3 {
		t.Error("min wrong")
	}
	if v := Min.apply(9, 2); v != 2 {
		t.Error("min wrong")
	}
	if Combine(99).valid() {
		t.Fatal("unknown combine valid")
	}
	var ce *CombineError
	if _, _, err := mustEngine(t, 4).Reduce(context.Background(), make([]int64, 4), make([]vlsi.Time, 4), Combine(99)); !errors.As(err, &ce) {
		t.Errorf("Reduce with unknown combine: want *CombineError, got %v", err)
	}
}

func mustEngine(t *testing.T, k int) *Engine {
	t.Helper()
	g, cfg := geom(t, k)
	eng, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBroadcastStress runs many concurrent broadcasts to shake out
// data races under `go test -race`.
func TestBroadcastStress(t *testing.T) {
	eng := mustEngine(t, 32)
	for i := 0; i < 20; i++ {
		vals, _, err := eng.Broadcast(context.Background(), int64(i), vlsi.Time(i))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range vals {
			if v != int64(i) {
				t.Fatalf("iteration %d: leaf %d got %d", i, j, v)
			}
		}
	}
}

// TestPipelineBroadcastMatchesRouter cross-validates the contention
// rule: a stream of words through one tree must complete at exactly
// the times the deterministic router computes, under bursty,
// word-spaced, and irregular release patterns.
func TestPipelineBroadcastMatchesRouter(t *testing.T) {
	for _, k := range []int{4, 16, 64} {
		g, cfg := geom(t, k)
		w := vlsi.Time(cfg.WordBits)
		patterns := map[string][]vlsi.Time{
			"burst":     {0, 0, 0, 0, 0, 0},
			"spaced":    {0, w, 2 * w, 3 * w, 4 * w, 5 * w},
			"irregular": {0, 1, 5 * w, 5*w + 2, 6 * w, 20 * w},
		}
		for name, rels := range patterns {
			eng, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rtr, err := tree.New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, len(rels))
			for i := range vals {
				vals[i] = int64(100 + i)
			}
			leafVals, done, err := eng.PipelineBroadcast(context.Background(), vals, rels)
			if err != nil {
				t.Fatal(err)
			}
			want := rtr.Pipeline(rels)
			for i := range rels {
				if done[i] != want[i] {
					t.Errorf("K=%d %s: word %d completed at %d (concurrent) vs %d (router)",
						k, name, i, done[i], want[i])
				}
				for j := 0; j < k; j++ {
					if leafVals[i][j] != vals[i] {
						t.Fatalf("K=%d %s: word %d at leaf %d = %d", k, name, i, j, leafVals[i][j])
					}
				}
			}
		}
	}
}

// TestPipelineBroadcastBackPressure: a burst of m words must leave
// the tree no faster than one word per word-time through the root
// edges.
func TestPipelineBroadcastBackPressure(t *testing.T) {
	g, cfg := geom(t, 16)
	eng, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := 8
	rels := make([]vlsi.Time, m)
	vals := make([]int64, m)
	_, done, err := eng.PipelineBroadcast(context.Background(), vals, rels)
	if err != nil {
		t.Fatal(err)
	}
	w := vlsi.Time(cfg.WordBits)
	for i := 1; i < m; i++ {
		if done[i] < done[i-1]+w {
			t.Errorf("word %d finished %d after %d: violates one-word-per-word-time", i, done[i], done[i-1])
		}
	}
}

func TestPipelineBroadcastArity(t *testing.T) {
	eng := mustEngine(t, 4)
	_, _, err := eng.PipelineBroadcast(context.Background(), make([]int64, 2), make([]vlsi.Time, 3))
	var ae *ArityError
	if !errors.As(err, &ae) {
		t.Errorf("mismatched lengths: want *ArityError, got %v", err)
	}
}

// TestPipelineReduceMatchesRouter: streamed combining ascents must
// arrive at the root exactly when the deterministic router says, and
// carry the correct sums.
func TestPipelineReduceMatchesRouter(t *testing.T) {
	for _, k := range []int{4, 16, 64} {
		g, cfg := geom(t, k)
		w := vlsi.Time(cfg.WordBits)
		for name, rels := range map[string][]vlsi.Time{
			"burst":  {0, 0, 0, 0},
			"spaced": {0, w, 2 * w, 3 * w},
			"ragged": {0, 1, 10 * w, 10*w + 3},
		} {
			eng, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rtr, err := tree.New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := len(rels)
			vals := make([][]int64, m)
			wantSums := make([]int64, m)
			rng := workload.NewRNG(uint64(k))
			for i := range vals {
				vals[i] = rng.Ints(k, 100)
				for _, v := range vals[i] {
					wantSums[i] += v
				}
			}
			sums, done, err := eng.PipelineReduce(context.Background(), vals, rels, Sum)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rels {
				want := rtr.ReduceUniform(rels[i])
				if done[i] != want {
					t.Errorf("K=%d %s: reduce %d done at %d (concurrent) vs %d (router)",
						k, name, i, done[i], want)
				}
				if sums[i] != wantSums[i] {
					t.Errorf("K=%d %s: reduce %d sum %d, want %d", k, name, i, sums[i], wantSums[i])
				}
			}
		}
	}
}

func TestPipelineReduceArity(t *testing.T) {
	eng := mustEngine(t, 4)
	var ae *ArityError
	if _, _, err := eng.PipelineReduce(context.Background(), make([][]int64, 2), make([]vlsi.Time, 3), Sum); !errors.As(err, &ae) {
		t.Errorf("length mismatch: want *ArityError, got %v", err)
	}
	if _, _, err := eng.PipelineReduce(context.Background(), [][]int64{make([]int64, 3)}, make([]vlsi.Time, 1), Sum); !errors.As(err, &ae) {
		t.Errorf("ragged value set: want *ArityError, got %v", err)
	}
}
