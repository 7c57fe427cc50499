package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 500}, {99, 990}, {100, 1000}, {0, 1}, {99.9, 999}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// The quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is how the spread of a set of runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
		med    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, 2.15, 7.45, 4.4},
		{[]float64{1, 2}, 0.75, 2.25, 1.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || median(c.v) != c.med {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.v, q1, q3, median(c.v), c.q1, c.q3, c.med)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", scaled(1), "lower", unchanged},
		{"within bound", scaled(1.04), "lower", unchanged},
		{"slower", scaled(1.10), "lower", regressed},
		{"faster", scaled(0.90), "lower", improved},
		{"less goodput", scaled(0.90), "higher", regressed},
		{"more goodput", scaled(1.10), "higher", improved},
		{"noisy", []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}, "lower", unresolved},
		{"noisy but always better", []float64{10, 30, 20, 25, 15, 12, 28, 22, 18, 24}, "lower", improved},
	} {
		if got := verdict(base, c.b, 0.05, c.better); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := failVerdict([]float64{0, 0, 0}, []float64{0, 0.002, 0.002}); got != regressed {
		t.Errorf("fail_frac rising by 0.002: %s, want regressed", got)
	}
	if got := failVerdict([]float64{0, 0, 0}, []float64{0, 0.0005, 0}); got != unchanged {
		t.Errorf("fail_frac within tolerance: %s, want unchanged", got)
	}
}

func TestCompareRows(t *testing.T) {
	spec := &benchSpec{EndToEnd: []benchMetric{{Name: "goodput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.05}}}
	a := `{"workload":"jobs_zipf","end_to_end":{"goodput_ops_s":100,"fail_frac":0}}
{"workload":"jobs_zipf","end_to_end":{"goodput_ops_s":101,"fail_frac":0}}
{"workload":"jobs_zipf","end_to_end":{"goodput_ops_s":99,"fail_frac":0}}
`
	b := strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(a, ":100,", ":80,"), ":101,", ":81,"), ":99,", ":79,")
	ra, err := parseRecords(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := parseRecords(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if v := verdict(ra["jobs_zipf"]["goodput_ops_s"], rb["jobs_zipf"]["goodput_ops_s"], 0.05, "higher"); v != regressed {
		t.Errorf("goodput 100 → 80: %s, want regressed", v)
	}
	var out strings.Builder
	dir := t.TempDir()
	pa, pb := dir+"/a.jsonl", dir+"/b.jsonl"
	writeFile(t, pa, a)
	writeFile(t, pb, b)
	ok, err := compare(&out, spec, pa, pb)
	if err != nil || ok {
		t.Fatalf("compare = %v, %v; want a failing comparison", ok, err)
	}
	if !strings.Contains(out.String(), "goodput_ops_s") || !strings.Contains(out.String(), regressed) {
		t.Errorf("compare output lacks the regressed row:\n%s", out.String())
	}
	if ok, err := compare(&out, spec, pa, pa); err != nil || !ok {
		t.Errorf("a set compared with itself: %v, %v; want ok", ok, err)
	}
}

// TestMeasureTakesMediansOverSlices feeds a window whose middle slice
// runs at a tenth of the speed: the medians read the typical slice.
func TestMeasureTakesMediansOverSlices(t *testing.T) {
	t0 := time.Now()
	win := tally{start: t0}
	var samples []sample
	for k := 0; k <= 3; k++ {
		samples = append(samples, sample{at: t0.Add(time.Duration(k) * slice), ticks: int64(10 * k), rssMB: float64(10 + k)})
	}
	for k := 0; k < 3; k++ {
		n, lat := 1000, time.Millisecond
		if k == 1 {
			n, lat = 100, 10*time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := time.Duration(k)*slice + time.Duration(i)*slice/time.Duration(n)
			win.done = append(win.done, completion{at: at, lat: lat, ok: 1, clean: true})
		}
	}
	win.ok = int64(len(win.done))
	st := measure(win, samples)
	if want := 1000 / slice.Seconds(); math.Abs(st.goodput-want) > 1e-9 {
		t.Errorf("goodput %v, want %v", st.goodput, want)
	}
	if want := 10 * clockTick / 1000; st.cpuPerOp != want {
		t.Errorf("cpu per op %v, want %v", st.cpuPerOp, want)
	}
	if st.p50 != time.Millisecond {
		t.Errorf("p50 %v, want the typical slice's 1ms", st.p50)
	}
	// Chunks of 1000: all 1ms, then the slow hundred among 900 fast;
	// the last 100 are a partial chunk and dropped.
	if st.p99 != 5500*time.Microsecond || st.chunks != 2 || st.samples != 2100 {
		t.Errorf("p99 %v over %d chunks of %d samples, want 5.5ms over 2 of 2100", st.p99, st.chunks, st.samples)
	}
	if st.rssMB != 13 {
		t.Errorf("RSS %v, want the last sample's 13", st.rssMB)
	}
}
