package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mcache"
	"repro/internal/server"
)

// otsimOut runs the command in-process and returns its stdout and
// stderr.
func otsimOut(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := otsim(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// flagsOf writes a served job as otsim flags.
func flagsOf(j server.Job) []string {
	args := []string{"-json", "-alg", j.Alg, "-n", strconv.Itoa(j.N), "-seed", strconv.FormatUint(j.Seed, 10)}
	if j.Network != "" {
		args = append(args, "-network", j.Network)
	}
	if j.Model != "" {
		args = append(args, "-model", j.Model)
	}
	if j.Faults > 0 {
		args = append(args, "-faults", strconv.Itoa(j.Faults))
	}
	if j.Events != nil {
		args = append(args, "-schedule", strconv.Itoa(*j.Events))
	}
	return args
}

// TestJSONMatchesServer pins otsim -json against the server's
// executor, byte for byte, over the rows of the server's
// TestServerMatchesOtsim. A row that sets the packed flag is written
// as plain cc, which otsim runs on the packed engine too.
func TestJSONMatchesServer(t *testing.T) {
	zero, two, three := 0, 2, 3
	jobs := []server.Job{
		{Alg: "sort", N: 16, Seed: 7},
		{Alg: "cc", N: 16, Seed: 11},
		{Alg: "sort", N: 16, Seed: 7, Model: "const"},
		{Alg: "sort", Network: "scaled", N: 16, Seed: 3},
		{Alg: "sort", N: 16, Seed: 5, Faults: 2},
		{Alg: "sort", N: 8, Seed: 9, Events: &three},
		{Alg: "cc", N: 8, Seed: 13, Events: &three},
		{Alg: "cc", N: 16, Seed: 17},
		{Alg: "cc", N: 64, Seed: 21},
		{Alg: "cc", Network: "scaled", N: 16, Seed: 11},
		{Alg: "cc", N: 16, Seed: 23, Events: &zero},
		{Alg: "cc", N: 64, Seed: 31, Events: &two},
		{Alg: "cc", Network: "scaled", N: 16, Seed: 41, Events: &two},
		{Alg: "cc", Network: "scaled", N: 64, Seed: 37, Events: &zero},
		{Alg: "cc", N: 16, Seed: 43, Model: "linear", Events: &two},
	}
	e := server.NewExecutor(mcache.New())
	for _, j := range jobs {
		args := flagsOf(j)
		t.Run(strings.Join(args[1:], " "), func(t *testing.T) {
			got, _, err := otsimOut(t, args...)
			if err != nil {
				t.Fatalf("otsim: %v", err)
			}
			rep, err := e.Run(context.Background(), &j)
			if err != nil {
				t.Fatalf("executor: %v", err)
			}
			want, err := rep.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want)+"\n" {
				t.Fatalf("otsim printed\n%s\nthe executor reports\n%s", got, want)
			}
		})
	}
}

// TestTraceKeepsJSON pins that -trace and -summary, which move a cc
// run (and a supervised cc run's baseline) from the packed engine to
// the machine so it has primitives to show, leave the report as it is.
func TestTraceKeepsJSON(t *testing.T) {
	for _, row := range []struct {
		flag, shows string
		run         []string
	}{
		{"-trace", "ROOTTOLEAF", []string{"-json", "-alg", "cc", "-n", "16"}},
		{"-summary", "primitive", []string{"-json", "-alg", "cc", "-n", "16"}},
		{"-trace", "ROOTTOLEAF", []string{"-json", "-alg", "cc", "-n", "16", "-schedule", "2"}},
		{"-summary", "primitive", []string{"-json", "-alg", "sort", "-n", "8", "-schedule", "1"}},
	} {
		want, _, err := otsimOut(t, row.run...)
		if err != nil {
			t.Fatalf("%v: %v", row.run, err)
		}
		args := append([]string{row.flag}, row.run...)
		got, narration, err := otsimOut(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got != want {
			t.Fatalf("%v printed\n%s\nwithout %s\n%s", args, got, row.flag, want)
		}
		if !strings.Contains(narration, row.shows) {
			t.Fatalf("%v: narration lacks %q:\n%s", args, row.shows, narration)
		}
	}
}

// TestOTCGoldens pins -network otc sort and cc, which no server route
// covers, to the reports otsim printed before sort and cc moved to the
// shared job path.
func TestOTCGoldens(t *testing.T) {
	for golden, args := range map[string][]string{
		"otc-sort-16.json":           {"-alg", "sort", "-n", "16"},
		"otc-cc-16.json":             {"-alg", "cc", "-n", "16"},
		"otc-sort-64-seed5.json":     {"-alg", "sort", "-n", "64", "-seed", "5"},
		"otc-cc-32-seed9-const.json": {"-alg", "cc", "-n", "32", "-seed", "9", "-model", "const"},
	} {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := otsimOut(t, append([]string{"-json", "-network", "otc"}, args...)...)
			if err != nil {
				t.Fatalf("otsim: %v", err)
			}
			if got != string(want) {
				t.Fatalf("printed\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestRejectsBeforeRunning pins that flag combinations otsim cannot
// serve fail before anything runs: no narration, no report.
func TestRejectsBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "matmul", "-n", "8", "-faults", "1"},
		{"-alg", "closure", "-n", "8", "-faults", "1"},
		{"-alg", "matmul3d", "-n", "4", "-faults", "1"},
		{"-alg", "sort", "-n", "16", "-network", "otc", "-faults", "1"},
		{"-alg", "cc", "-n", "16", "-network", "otc", "-schedule", "1"},
		{"-alg", "sort", "-n", "16", "-faults", "1", "-schedule", "1"},
		{"-alg", "mst", "-n", "16", "-schedule", "1"},
		{"-alg", "sort", "-n", "16", "-model", "bogus"},
		{"-alg", "bogus", "-n", "16"},
	} {
		got, _, err := otsimOut(t, args...)
		if err == nil {
			t.Fatalf("%v ran; want an error", args)
		}
		if got != "" {
			t.Fatalf("%v printed before failing (%v):\n%s", args, err, got)
		}
	}
}
