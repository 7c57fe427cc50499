package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/report"
)

// Sentinel admission outcomes, mapped to HTTP statuses by the
// handlers.
var (
	// ErrQueueFull is load shedding: the bounded admission queue is
	// full (429 + Retry-After).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining is the shutdown ladder's last rung: the server no
	// longer admits work (503 + Retry-After).
	ErrDraining = errors.New("server: draining")
)

// result is what a worker delivers back to the waiting handler.
type result struct {
	rep *report.Report
	err error
}

// queuedJob is one admitted job riding the queue: its spec, its
// deadline context, and a buffered result slot (buffered so a worker
// never blocks on a handler that gave up at its deadline — the
// result is flushed into the slot and garbage-collected with it).
type queuedJob struct {
	spec   *Job
	probe  bool // admitted as a half-open breaker probe (must Record or Release)
	ctx    context.Context
	cancel context.CancelFunc // releases the deadline timer; nil when no deadline
	res    chan result
}

// settle releases the job's deadline timer once the worker is done
// with it.
func (qj *queuedJob) settle() {
	if qj.cancel != nil {
		qj.cancel()
	}
}

// Pool is the bounded worker pool: admitted jobs ride a bounded
// queue; each worker pulls one job, runs it alone against the machine
// cache, feeds the breaker, and delivers the result. Exec is
// injectable for tests.
type Pool struct {
	queue    chan *queuedJob
	queueCap int
	workers  int

	exec    func(ctx context.Context, j *Job) (*report.Report, error)
	breaker *Breaker
	metrics *Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	admitMu  sync.RWMutex
	draining bool
	wg       sync.WaitGroup
}

// NewPool builds and starts the workers. exec runs one job; the
// default is Executor.Run.
func NewPool(workers, queueCap int, exec func(context.Context, *Job) (*report.Report, error), br *Breaker, mt *Metrics) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		queue: make(chan *queuedJob, queueCap), queueCap: queueCap,
		workers: workers,
		exec:    exec, breaker: br, metrics: mt,
		baseCtx: ctx, baseCancel: cancel,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit admits a job or reports why not. The caller has already
// passed validation, fairness and the breaker; this is the final,
// bounded-queue gate.
func (p *Pool) Submit(qj *queuedJob) error {
	p.admitMu.RLock()
	defer p.admitMu.RUnlock()
	if p.draining {
		return ErrDraining
	}
	select {
	case p.queue <- qj:
		p.metrics.add(func(m *Metrics) { m.accepted++; m.queueDepth++ })
		return nil
	default:
		return ErrQueueFull
	}
}

// Drain is the graceful-shutdown rung: stop admitting (Submit answers
// ErrDraining), let the workers finish every queued and in-flight job
// — supervised jobs keep their checkpoint/rollback protection to the
// end — flush all results, and join the workers. If ctx expires
// first, the pool's base context is cancelled (aborting machine-cache
// waits) and the error returned.
func (p *Pool) Drain(ctx context.Context) error {
	p.admitMu.Lock()
	if !p.draining {
		p.draining = true
		close(p.queue)
	}
	p.admitMu.Unlock()

	done := make(chan struct{})
	go func() { p.wg.Wait(); close(done) }()
	select {
	case <-done:
		p.baseCancel()
		return nil
	case <-ctx.Done():
		p.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Draining reports whether admission has stopped.
func (p *Pool) Draining() bool {
	p.admitMu.RLock()
	defer p.admitMu.RUnlock()
	return p.draining
}

// worker is the pull loop: take a job, run it, deliver. Exits when
// the queue is closed and empty.
func (p *Pool) worker() {
	defer p.wg.Done()
	for qj := range p.queue {
		p.metrics.add(func(m *Metrics) { m.queueDepth-- })
		if !p.expired(qj) {
			p.run(qj)
		}
	}
}

// expired sheds a job whose deadline passed while it was queued: it
// never holds a machine, and the handler (long gone or about to be)
// finds a deadline result in the buffered slot.
func (p *Pool) expired(qj *queuedJob) bool {
	if qj.ctx.Err() == nil {
		return false
	}
	if qj.probe {
		p.breaker.Release(qj.spec.Class())
	}
	p.metrics.add(func(m *Metrics) { m.deadlineBeforeStart++ })
	qj.res <- result{err: qj.ctx.Err()}
	qj.settle()
	return true
}

// run executes one job with panic containment and full accounting,
// feeds the breaker, and delivers the job's report.
func (p *Pool) run(qj *queuedJob) {
	j := qj.spec
	p.metrics.add(func(m *Metrics) { m.inflight++ })
	var rep *report.Report
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("server: panic in %s: %v", j.Class(), r)
				p.metrics.add(func(m *Metrics) { m.panics++ })
			}
		}()
		rep, err = p.exec(p.baseCtx, j)
	}()
	if Counts(err) || err == nil {
		p.breaker.Record(j.Class(), err)
	} else if qj.probe {
		// Context cancellation (drain, dead deadline) says nothing
		// about the class: skip Record but return the probe so the
		// class can probe again instead of wedging.
		p.breaker.Release(j.Class())
	}
	p.metrics.add(func(m *Metrics) {
		m.inflight--
		if err == nil {
			m.completed++
			if j.usesPacked() {
				m.packedJobs++
				m.packedBits += int64(j.N)
				m.packedSlots += int64(bits.Words(j.N) * bits.WordBits)
			}
		} else {
			m.failed++
			if IsGiveUp(err) {
				m.giveUps++
			}
		}
		if qj.ctx.Err() == context.DeadlineExceeded {
			m.deadlineMidRun++
		}
	})
	qj.res <- result{rep: rep, err: err}
	qj.settle()
}

// queueDepth exposes the live depth (metrics snapshot uses the
// counter; this is for tests).
func (p *Pool) queueDepth() int { return len(p.queue) }

// awaitResult is the handler side: wait for the worker's delivery or
// the job's deadline, whichever first.
func awaitResult(qj *queuedJob) (result, bool) {
	select {
	case r := <-qj.res:
		return r, true
	case <-qj.ctx.Done():
		return result{}, false
	}
}

// settleDeadline gives a just-expired handler one last grace read: a
// worker may have delivered in the same instant.
func settleDeadline(qj *queuedJob, grace time.Duration) (result, bool) {
	select {
	case r := <-qj.res:
		return r, true
	case <-time.After(grace):
		return result{}, false
	}
}
