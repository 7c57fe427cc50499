package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/internal/server"
)

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkSchema holds BENCHMARK.json to its format and to this
// program: every metric it lists is one the program computes, and
// every per-layer metric names the end-to-end metric and the workloads
// it should move.
func TestBenchmarkSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("top-level keys %v, want %v", got, want)
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}

	names := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}
	var wls []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("workloads %v, want %v", wls, workloadNames)
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	e2e := map[string]bool{"fail_frac": true}
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	setup := spec.EndToEnd[0]
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s's; set-up gets the largest", m.Name, m.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower", setup)
	}

	moves := map[string]layerMetric{}
	for _, l := range layerMetrics {
		moves[l.name] = l
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("%s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		l, ok := moves[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s names no end-to-end metric to move", m.Name)
			continue
		}
		if len(l.moves) == 0 || len(l.workloads) == 0 {
			t.Errorf("%s: moves %v on %v", m.Name, l.moves, l.workloads)
		}
		for _, e := range l.moves {
			if !e2e[e] {
				t.Errorf("%s moves %q, not an end-to-end metric", m.Name, e)
			}
		}
		for _, w := range l.workloads {
			if newWorkload[w] == nil {
				t.Errorf("%s moves a metric on unknown workload %q", m.Name, w)
			}
		}
		delete(moves, m.Name)
	}
	for n := range moves {
		t.Errorf("layer table lists %s, which BENCHMARK.json lacks", n)
	}

	// Every per-layer name is one the program computes.
	computed := metricsDelta(&server.Snapshot{ResultCache: &server.ResultCacheSnapshot{}, Durability: &server.DurabilitySnapshot{}},
		&server.Snapshot{ResultCache: &server.ResultCacheSnapshot{}, Durability: &server.DurabilitySnapshot{}}, 1, 1)
	stages, _ := stageStats([]span{{stage: stRequest, parent: -1, end: 1}})
	for k, v := range stages {
		computed[k] = v
	}
	for _, c := range engineClasses {
		computed["engine.host_ns_per_bit_time."+c.label] = 0
	}
	computed["server.transport_queue_ms"], computed["trace.overhead_frac"] = 0, 0
	for _, m := range spec.PerLayer {
		if _, ok := computed[m.Name]; !ok {
			t.Errorf("per-layer metric %s is never computed", m.Name)
		}
		delete(computed, m.Name)
	}
	for n := range computed {
		t.Errorf("computed metric %s is missing from BENCHMARK.json", n)
	}
}
