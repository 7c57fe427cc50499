package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/mcache"
	"repro/internal/report"
	"repro/internal/run"
)

// Executor runs validated jobs through run.Run, the one job path otsim
// shares, lending it machines from the server's cache. Its reports are
// therefore the bytes otsim -json prints for the same flags;
// TestServerMatchesOtsim pins them against an independent scalar
// reference, and otsim's own tests against this executor.
type Executor struct {
	cache *mcache.Cache
}

// NewExecutor wraps a machine cache.
func NewExecutor(c *mcache.Cache) *Executor { return &Executor{cache: c} }

// Run executes one job solo and fills in its report. Machines are
// checked out under ctx (the pool's drain context — deadlines shed
// before this point, so a queued job never holds a machine it cannot
// use). The returned error is the breaker-visible failure
// (GiveUpError, machine error); shed and validation failures never
// reach here.
func (e *Executor) Run(ctx context.Context, j *Job) (*report.Report, error) {
	s := j.spec()
	checkout := func(ctx context.Context) (*core.Machine, func(), error) {
		key := s.Key()
		m, err := e.cache.CheckoutContext(ctx, key, s.Build)
		if err != nil {
			return nil, nil, err
		}
		return m, func() { e.cache.Return(key, m) }, nil
	}
	rep, _, err := run.Run(ctx, s, checkout, false)
	if rep != nil {
		rep.JobID = j.ID
	}
	return rep, err
}
