package ccc

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vlsi"
	"repro/internal/workload"
)

func machine(t testing.TB, n int) *Machine {
	t.Helper()
	c, err := New(n, vlsi.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(6, vlsi.DefaultConfig(8)); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := New(8, vlsi.Config{}); err == nil {
		t.Error("bad config accepted")
	}
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestBitonicSort(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 256} {
		c := machine(t, n)
		xs := workload.NewRNG(uint64(n)).Ints(n, 1000)
		got, done := c.BitonicSort(xs, 0)
		want := sortedCopy(xs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("N=%d: CCC bitonic wrong", n)
			}
		}
		if done <= 0 {
			t.Error("sort took no time")
		}
	}
}

func TestBitonicSortQuick(t *testing.T) {
	c := machine(t, 64)
	f := func(seed uint64) bool {
		xs := workload.NewRNG(seed).Ints(64, 500)
		got, _ := c.BitonicSort(xs, 0)
		want := sortedCopy(xs)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDimTimeGrows(t *testing.T) {
	c := machine(t, 1024)
	// High cube dimensions cross longer wires than low cycle
	// rotations under the log-delay model.
	low := c.DimTime(0)
	high := c.DimTime(c.m - 1)
	if high <= low {
		t.Errorf("dim time not growing: d0=%d, dmax=%d", low, high)
	}
}

// TestSortTimePolylog: Θ(log³ N) under log-delay.
func TestSortTimePolylog(t *testing.T) {
	var logs, times []float64
	for n := 16; n <= 4096; n *= 4 {
		c := machine(t, n)
		xs := workload.NewRNG(uint64(n)).Ints(n, 1<<20)
		_, done := c.BitonicSort(xs, 0)
		logs = append(logs, float64(vlsi.Log2Ceil(n)))
		times = append(times, float64(done))
	}
	e := vlsi.GrowthExponent(logs, times)
	if e < 1.5 || e > 4.0 {
		t.Errorf("CCC sort time grows as log^%.2f N; want ~log³", e)
	}
}

// TestConstantDelayModelFaster: the Section VII-D comparison — the
// same algorithm drops to Θ(log² N) without wire delays.
func TestConstantDelayModelFaster(t *testing.T) {
	n := 1024
	xs := workload.NewRNG(3).Ints(n, 1000)
	cLog, _ := New(n, vlsi.Config{WordBits: vlsi.WordBitsFor(n), Model: vlsi.LogDelay{}})
	cConst, _ := New(n, vlsi.Config{WordBits: vlsi.WordBitsFor(n), Model: vlsi.ConstantDelay{}})
	_, dLog := cLog.BitonicSort(xs, 0)
	_, dConst := cConst.BitonicSort(xs, 0)
	if dConst >= dLog {
		t.Errorf("constant-delay CCC sort (%d) not faster than log-delay (%d)", dConst, dLog)
	}
}

// TestAscendSteps: the communication time of one full ASCEND (or
// DESCEND) sweep over all dimensions — the primitive Preparata and
// Vuillemin build every CCC algorithm from — costs at least one
// bit-time per dimension.
func TestAscendSteps(t *testing.T) {
	c := machine(t, 256)
	var sweep vlsi.Time
	for d := 0; d < c.m; d++ {
		sweep += c.DimTime(d)
	}
	if sweep < vlsi.Time(c.m) {
		t.Errorf("ascend sweep %d cheaper than one bit-time per dimension (%d)", sweep, c.m)
	}
}

func TestArity(t *testing.T) {
	c := machine(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("wrong input length accepted")
		}
	}()
	c.BitonicSort(make([]int64, 5), 0)
}
