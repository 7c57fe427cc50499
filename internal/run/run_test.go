package run

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mcache"
	"repro/internal/report"
)

// cached lends machines from c, as the server's executor does.
func cached(c *mcache.Cache, s Spec) Checkout {
	return func(ctx context.Context) (*core.Machine, func(), error) {
		m, err := c.CheckoutContext(ctx, s.Key(), s.Build)
		if err != nil {
			return nil, nil, err
		}
		return m, func() { c.Return(s.Key(), m) }, nil
	}
}

// fresh builds a new machine per checkout, as otsim does.
func fresh(s Spec) Checkout {
	return func(context.Context) (*core.Machine, func(), error) {
		m, err := s.Build()
		return m, func() {}, err
	}
}

func specs() []Spec {
	zero, two := 0, 2
	return []Spec{
		{Alg: "sort", N: 16, Seed: 1},
		{Alg: "sort", Network: "scaled", Model: "linear", N: 16, Seed: 2},
		{Alg: "sort", Network: "otc", N: 16, Seed: 3},
		{Alg: "sort", N: 16, Seed: 4, Faults: 2},
		{Alg: "sort", N: 8, Seed: 5, Events: &two},
		{Alg: "cc", N: 16, Seed: 6},
		{Alg: "cc", Network: "scaled", Model: "const", N: 32, Seed: 7},
		{Alg: "cc", Network: "otc", N: 16, Seed: 8},
		{Alg: "cc", N: 16, Seed: 9, Faults: 1},
		{Alg: "cc", N: 16, Seed: 10, Events: &zero},
		{Alg: "cc", N: 16, Seed: 11, Events: &two},
	}
}

func mustRun(t *testing.T, s Spec, checkout Checkout, scalar bool) *report.Report {
	t.Helper()
	rep, _, err := Run(context.Background(), s, checkout, scalar)
	if err != nil {
		t.Errorf("%+v: %v", s, err)
		return nil
	}
	return rep
}

// TestScalarKeepsReport pins the override otsim's -trace and -summary
// use: sending a cc run, or a supervised cc run's baseline, to the
// machine instead of the packed engine leaves every report byte as it
// is.
func TestScalarKeepsReport(t *testing.T) {
	for _, s := range specs() {
		want := mustRun(t, s, fresh(s), false)
		got := mustRun(t, s, fresh(s), true)
		if want == nil || got == nil {
			continue
		}
		if !got.Same(want) {
			t.Errorf("%+v: scalar run differs:\n%s", s, got.Diff(want))
		}
	}
}

// TestConcurrentRunsShareCache runs every spec four times at once
// against one machine cache, as the server's workers do, and requires
// each report to equal a solo run's on freshly built machines: machine
// reuse may not be observable.
func TestConcurrentRunsShareCache(t *testing.T) {
	c := mcache.NewWithCapacity(2)
	var wg sync.WaitGroup
	for _, s := range specs() {
		want := mustRun(t, s, fresh(s), false)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := mustRun(t, s, cached(c, s), false)
				if want != nil && got != nil && !got.Same(want) {
					t.Errorf("%+v: cached run differs:\n%s", s, got.Diff(want))
				}
			}()
		}
	}
	wg.Wait()
}

// TestRunRejects pins that Run refuses what no machine can serve
// before it checks anything out.
func TestRunRejects(t *testing.T) {
	one, minus := 1, -1
	for _, s := range []Spec{
		{Alg: "mst", N: 16},
		{Alg: "sort", Network: "mesh", N: 16},
		{Alg: "sort", Model: "cubic", N: 16},
		{Alg: "sort", N: 16, Faults: -1},
		{Alg: "sort", N: 16, Events: &minus},
		{Alg: "sort", N: 16, Faults: 1, Events: &one},
		{Alg: "cc", Network: "otc", N: 16, Faults: 1},
		{Alg: "cc", Network: "otc", N: 16, Events: &one},
	} {
		checkout := func(context.Context) (*core.Machine, func(), error) {
			t.Errorf("%+v: checked out a machine", s)
			return nil, nil, errors.New("refused")
		}
		if rep, _, err := Run(context.Background(), s, checkout, false); err == nil || rep != nil {
			t.Errorf("%+v ran: report %v, error %v", s, rep, err)
		}
	}
}
