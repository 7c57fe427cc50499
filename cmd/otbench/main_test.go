package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// baseFile is a minimal baseline that passes diff against itself: one
// entry with a simulated metric plus the four entries hostFloors
// reads, each floor at twice its minimum.
func baseFile() BenchFile {
	return BenchFile{
		PeakRSSKB: 1000,
		Benchmarks: []BenchResult{
			{Name: "Table1Sort/n=64", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000,
				Simulated: map[string]float64{"OTN/N=64/bit-times": 812, "OTN/N=64/area": 4096}},
			{Name: "ScalarComponents/n=256", NsPerOp: 8000},
			{Name: "PackedComponents/n=256", NsPerOp: 1000},
			{Name: "RecomputeComponents/n=1024", NsPerOp: 10000},
			{Name: "IncrementalComponents/n=1024/b=1", NsPerOp: 1000},
		},
	}
}

// clone deep-copies f so a case can mutate the current run alone.
func clone(f BenchFile) BenchFile {
	out := f
	out.Benchmarks = make([]BenchResult, len(f.Benchmarks))
	for i, b := range f.Benchmarks {
		sim := map[string]float64{}
		for k, v := range b.Simulated {
			sim[k] = v
		}
		b.Simulated = sim
		out.Benchmarks[i] = b
	}
	return out
}

// entry returns a pointer to the named entry of f.
func entry(t *testing.T, f *BenchFile, name string) *BenchResult {
	t.Helper()
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i]
		}
	}
	t.Fatalf("no entry %s", name)
	return nil
}

func TestDiff(t *testing.T) {
	cases := []struct {
		name string
		edit func(t *testing.T, cur *BenchFile)
		fail string // substring of the FAIL line; "" = must pass
	}{
		{"identical", func(*testing.T, *BenchFile) {}, ""},
		{"simulated metric unequal", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "Table1Sort/n=64").Simulated["OTN/N=64/bit-times"] = 813
		}, `simulated "OTN/N=64/bit-times" = 813`},
		{"simulated metric missing", func(t *testing.T, cur *BenchFile) {
			delete(entry(t, cur, "Table1Sort/n=64").Simulated, "OTN/N=64/area")
		}, `simulated metric "OTN/N=64/area" missing`},
		{"entry missing", func(t *testing.T, cur *BenchFile) {
			cur.Benchmarks = cur.Benchmarks[1:]
		}, "Table1Sort/n=64: benchmark missing from current run"},
		{"extra entry", func(t *testing.T, cur *BenchFile) {
			cur.Benchmarks = append(cur.Benchmarks, BenchResult{Name: "New/n=1"})
		}, "New/n=1: benchmark missing from baseline"},
		// Limit = baseline × 1.25 + 16 = 141 allocs/op.
		{"allocs at limit", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "Table1Sort/n=64").AllocsPerOp = 141
		}, ""},
		{"allocs one past limit", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "Table1Sort/n=64").AllocsPerOp = 142
		}, "allocs/op 142 exceeds baseline 100 (limit 141)"},
		// Limit = baseline × 1.25 + 4096 = 16596 B/op.
		{"bytes at limit", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "Table1Sort/n=64").BytesPerOp = 16596
		}, ""},
		{"bytes one past limit", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "Table1Sort/n=64").BytesPerOp = 16597
		}, "bytes/op 16597 exceeds baseline 10000 (limit 16596)"},
		{"RSS at 2x", func(t *testing.T, cur *BenchFile) { cur.PeakRSSKB = 2000 }, ""},
		{"RSS above 2x", func(t *testing.T, cur *BenchFile) { cur.PeakRSSKB = 2001 }, "peak RSS 2001 KiB"},
		{"packed floor at 4x", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "PackedComponents/n=256").NsPerOp = 2000
		}, ""},
		{"packed floor below 4x", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "PackedComponents/n=256").NsPerOp = 2001
		}, "packed vs scalar components at N=256"},
		{"packed entry missing", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "PackedComponents/n=256").Name = "Renamed"
		}, "packed vs scalar components at N=256: 0.00x"},
		// One incremental op is two batches: 10000 ns over 2000/2 is 10x.
		{"incremental floor at 10x", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "IncrementalComponents/n=1024/b=1").NsPerOp = 2000
		}, ""},
		{"incremental floor below 10x", func(t *testing.T, cur *BenchFile) {
			entry(t, cur, "IncrementalComponents/n=1024/b=1").NsPerOp = 2001
		}, "single-flip incremental batch vs recompute at N=1024"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := baseFile()
			cur := clone(base)
			c.edit(t, &cur)
			// The floors read the current run only; a baseline below
			// them must not mask a failing run or fail a passing one.
			for i := range base.Benchmarks {
				base.Benchmarks[i].NsPerOp = 1
			}
			var out bytes.Buffer
			ok := diff(base, cur, 0, &out)
			if c.fail == "" {
				if !ok || strings.Contains(out.String(), "FAIL") {
					t.Fatalf("diff failed, want pass:\n%s", out.String())
				}
				return
			}
			if ok {
				t.Fatalf("diff passed, want FAIL %q:\n%s", c.fail, out.String())
			}
			var hit bool
			for _, line := range strings.Split(out.String(), "\n") {
				hit = hit || strings.HasPrefix(line, "FAIL") && strings.Contains(line, c.fail)
			}
			if !hit {
				t.Fatalf("no FAIL line containing %q:\n%s", c.fail, out.String())
			}
		})
	}
}

// TestDiffHostTol pins that ns/op gates only under -hosttol.
func TestDiffHostTol(t *testing.T) {
	base := baseFile()
	cur := clone(base)
	entry(t, &cur, "Table1Sort/n=64").NsPerOp = 1400
	var out bytes.Buffer
	if !diff(base, cur, 0, &out) {
		t.Fatalf("ns/op +40%% failed without -hosttol:\n%s", out.String())
	}
	if !diff(base, cur, 50, &out) {
		t.Fatalf("ns/op +40%% failed under -hosttol 50:\n%s", out.String())
	}
	out.Reset()
	if diff(base, cur, 30, &out) || !strings.Contains(out.String(), "over -hosttol 30.0%") {
		t.Fatalf("ns/op +40%% passed under -hosttol 30:\n%s", out.String())
	}
}

func TestParseTable(t *testing.T) {
	names := func(sel []artefact) []string {
		var out []string
		for _, a := range sel {
			out = append(out, a.name)
		}
		return out
	}
	all, err := parseTable("all")
	if err != nil || len(all) != len(artefacts) {
		t.Fatalf("all: %d artefacts, err %v; want %d", len(all), err, len(artefacts))
	}
	for _, c := range []struct {
		in   string
		want []string
	}{
		{"3", []string{"3"}},
		{"1,3,mst,faults", []string{"1", "3", "mst", "faults"}},
		// Selection prints in the order "all" does, once each.
		{"incremental, packed,1,1", []string{"1", "packed", "incremental"}},
		{"recovery,pipeline,figs,mot3d,2,4", []string{"2", "4", "figs", "mot3d", "recovery", "pipeline"}},
	} {
		sel, err := parseTable(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got := names(sel); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%q: got %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"5", "0", "", "1,", "mst,fault", "ALL"} {
		if sel, err := parseTable(bad); err == nil {
			t.Fatalf("%q: got %v, want an error", bad, names(sel))
		}
	}
}
