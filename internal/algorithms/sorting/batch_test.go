package sorting

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// The batch adapter's contract is bit-identity: batch-of-B equals B
// runs on dedicated, freshly Reset machines — outputs AND completion
// times — for any mix of lane inputs. The bench module's replay oracle
// relies on it.
func TestSortOTNBatchDeterministic(t *testing.T) {
	for _, tc := range []struct{ k, b int }{
		{4, 1}, {8, 4}, {16, 4}, {8, 16}, {16, 16},
	} {
		m := machine(t, tc.k)
		bb, err := core.NewBatch(m, tc.b)
		if err != nil {
			t.Fatal(err)
		}

		problems := make([][]int64, tc.b)
		for p := range problems {
			problems[p] = workload.NewRNG(uint64(tc.k*1000 + p)).Perm(tc.k)
		}
		// Lane 1 (when present) gets duplicates so the modified step 3
		// tie-break diverges per lane as well.
		if tc.b > 1 {
			for i := range problems[1] {
				problems[1][i] = int64(i % 3)
			}
		}

		got, times := SortOTNBatch(bb, problems)
		if err := bb.Err(); err != nil {
			t.Fatalf("K=%d B=%d: batch error: %v", tc.k, tc.b, err)
		}

		ref := machine(t, tc.k)
		for p := 0; p < tc.b; p++ {
			ref.Reset()
			want, wantDone := SortOTN(ref, problems[p], 0)
			if err := ref.Err(); err != nil {
				t.Fatal(err)
			}
			if !equal(got[p], want) {
				t.Errorf("K=%d B=%d lane %d: sorted %v, want %v",
					tc.k, tc.b, p, got[p], want)
			}
			if times[p] != wantDone {
				t.Errorf("K=%d B=%d lane %d: done = %d, sequential run = %d",
					tc.k, tc.b, p, times[p], wantDone)
			}
		}
	}
}

// Identical lanes must also agree with each other exactly: each
// lane starts from the same Reset state.
func TestSortOTNBatchUniformLanes(t *testing.T) {
	const k, b = 8, 8
	m := machine(t, k)
	bb, err := core.NewBatch(m, b)
	if err != nil {
		t.Fatal(err)
	}
	xs := workload.NewRNG(99).Perm(k)
	problems := make([][]int64, b)
	for p := range problems {
		problems[p] = xs
	}
	got, times := SortOTNBatch(bb, problems)
	var want vlsi.Time
	{
		ref := machine(t, k)
		var sorted []int64
		sorted, want = SortOTN(ref, xs, 0)
		if !equal(got[0], sorted) {
			t.Fatalf("lane 0 sorted %v, want %v", got[0], sorted)
		}
	}
	for p := 0; p < b; p++ {
		if times[p] != want {
			t.Errorf("lane %d done = %d, want %d", p, times[p], want)
		}
		if !equal(got[p], got[0]) {
			t.Errorf("lane %d output differs from lane 0", p)
		}
	}
}
