package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of sorted samples: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float error from pushing an exact rank up one.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the middle value (mean of the two middle values for an
// even count), as Python's statistics.median.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (its default exclusive method), so
// a spread computed here matches one computed from the same values in
// Python. Fewer than two values have no spread: both quartiles are the
// value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Verdicts of one compare row.
const (
	regressed  = "regressed"
	unchanged  = "unchanged"
	improved   = "improved"
	unresolved = "unresolved"
)

// failFracTolerance is the absolute amount fail_frac may rise before a
// change counts as regressed. It is absolute because the seed reads 0,
// where a relative bound means nothing.
const failFracTolerance = 0.001

// verdict classifies the change from runs a to runs b of one metric.
// bound is the relative worsening allowed; better is "lower" or
// "higher". When either side's own spread is wider than the bound the
// medians cannot be told apart, unless every run of b beats every run
// of a.
func verdict(a, b []float64, bound float64, better string) string {
	worse := func(x, y float64) float64 { // how much worse y is than x, relative
		if x == 0 {
			return 0
		}
		if better == "higher" {
			return (x - y) / math.Abs(x)
		}
		return (y - x) / math.Abs(x)
	}
	ma, mb := median(a), median(b)
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, better) {
			return improved
		}
		return unresolved
	}
	switch w := worse(ma, mb); {
	case w > bound:
		return regressed
	case w < -bound:
		return improved
	}
	return unchanged
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// failVerdict applies the absolute fail_frac rule.
func failVerdict(a, b []float64) string {
	switch d := median(b) - median(a); {
	case d > failFracTolerance:
		return regressed
	case d < -failFracTolerance:
		return improved
	}
	return unchanged
}

// readRecords loads the per-run records a results file holds, grouped
// as workload → metric → values (one value per run).
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRecords(f)
}

func parseRecords(r io.Reader) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Workload == "" {
			continue
		}
		m := out[rec.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[rec.Workload] = m
		}
		for k, v := range rec.EndToEnd {
			m[k] = append(m[k], v)
		}
	}
	return out, sc.Err()
}

// compare prints one row per workload × end-to-end metric and returns
// whether no row regressed or stayed unresolved.
func compare(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-17s %-21s %25s %25s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	ok := true
	rows := 0
	for _, wl := range workloadNames {
		ma, mb := a[wl], b[wl]
		if ma == nil || mb == nil {
			continue
		}
		metrics := append(append([]benchMetric(nil), spec.EndToEnd...),
			benchMetric{Name: "fail_frac", Unit: "fraction", Better: "lower", Bound: failFracTolerance})
		for _, m := range metrics {
			va, vb := ma[m.Name], mb[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m.Bound, m.Better)
			if m.Name == "fail_frac" {
				v = failVerdict(va, vb)
			}
			if v == regressed || v == unresolved {
				ok = false
			}
			change := 0.0
			if med := median(va); med != 0 {
				change = (median(vb) - med) / math.Abs(med)
			}
			fmt.Fprintf(w, "%-17s %-21s %25s %25s %+7.1f%% %5.1f%%  %s\n",
				wl, m.Name, quartileCell(va), quartileCell(vb), 100*change, 100*m.Bound, v)
			rows++
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("no workload has runs in both %s and %s", pathA, pathB)
	}
	return ok, nil
}

func quartileCell(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}
