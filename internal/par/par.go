// Package par provides the bounded host-parallelism primitive the
// analysis sweeps use to spread independent cells across CPU cores:
// an errgroup-style Group, each of whose tasks owns its own machine.
//
// Everything here is HOST parallelism — wall-clock only. The
// parallelism the paper talks about (every row and column tree
// operating at once) is SIMULATED, accounted in bit-times by
// core.Machine.ParDo on the goroutine that owns the machine; see
// DESIGN.md's "Simulated vs host parallelism" section.
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the worker count used when a caller asks for 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Group is a bounded-concurrency error group, modelled on
// golang.org/x/sync/errgroup (which is deliberately not vendored —
// the module graph stays stdlib-only). Go schedules a task, Wait
// joins them all and returns the first error.
type Group struct {
	wg      sync.WaitGroup
	sem     chan struct{}
	errOnce sync.Once
	err     error
}

// SetLimit bounds the number of concurrently running tasks. It must
// be called before the first Go. n <= 0 means no limit.
func (g *Group) SetLimit(n int) {
	if n <= 0 {
		g.sem = nil
		return
	}
	g.sem = make(chan struct{}, n)
}

// Go runs f in a new goroutine, blocking first if the limit is
// reached. The first non-nil error across all tasks is kept for Wait.
func (g *Group) Go(f func() error) {
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if g.sem != nil {
			defer func() { <-g.sem }()
		}
		if err := f(); err != nil {
			g.errOnce.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every task started by Go has returned, then
// returns the first error any of them produced.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
