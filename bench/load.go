package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// op is one operation a closed-loop client sends: a job, an array of
// jobs, or a session update batch.
type op struct {
	idx  int64 // position in the run's operation sequence
	path string
	body []byte
	key  string // Idempotency-Key, or ""
	jobs int    // jobs the op carries: 1, or the array length
	sess int    // sessions_durable: which session of the pair
	rank int    // jobs_zipf: the spec's popularity rank
}

// answer is a served reply kept for the oracle.
type answer struct {
	op   *op
	body []byte
}

// verdict of one served op, counted in jobs for arrays.
type judged struct {
	ok, failed, wrong int
}

// completion is one finished op: when it finished (since its phase
// began), how long it took, and how many of its jobs succeeded. Only a
// clean op, all jobs ok and right, has a latency that counts.
type completion struct {
	at, lat time.Duration
	ok      int32
	clean   bool
}

// tally accumulates one phase's outcome.
type tally struct {
	done      []completion
	attempted int64 // jobs (array ops count each job)
	ok        int64
	failed    int64 // refused, shed, errored or transport-failed jobs
	wrong     int64 // answered, but not what the oracle or the spec's earlier answers say
	kept      []answer
	start     time.Time
}

func (t *tally) add(o tally) {
	t.done = append(t.done, o.done...)
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.wrong += o.wrong
	t.kept = append(t.kept, o.kept...)
}

// phase runs clients closed-loop goroutines until next runs dry: each
// sends an op, waits for the whole reply, judges it and takes the next.
// keep chooses the replies held for the oracle.
func phase(ctx context.Context, c *client, clients int, next func(cl int) *op,
	judge func(*op, int, []byte) judged, keep func(*op) bool) tally {
	start := time.Now()
	parts := make([]tally, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			t := &parts[cl]
			var buf bytes.Buffer
			hdr := map[string]string{"X-Client-ID": "c" + strconv.Itoa(cl)}
			for ctx.Err() == nil {
				o := next(cl)
				if o == nil {
					return
				}
				if o.key != "" {
					hdr["Idempotency-Key"] = o.key
				}
				t0 := time.Now()
				status, err := c.do(ctx, http.MethodPost, o.path, o.body, hdr, &buf)
				t1 := time.Now()
				t.attempted += int64(o.jobs)
				if err != nil {
					t.failed += int64(o.jobs)
					continue
				}
				j := judge(o, status, buf.Bytes())
				t.ok += int64(j.ok)
				t.failed += int64(j.failed)
				t.wrong += int64(j.wrong)
				t.done = append(t.done, completion{at: t1.Sub(start), lat: t1.Sub(t0), ok: int32(j.ok),
					clean: j.failed == 0 && j.wrong == 0})
				if keep(o) {
					t.kept = append(t.kept, answer{o, bytes.Clone(buf.Bytes())})
				}
			}
		}(cl)
	}
	wg.Wait()
	all := tally{start: start}
	for _, p := range parts {
		all.add(p)
	}
	sort.Slice(all.done, func(i, j int) bool { return all.done[i].at < all.done[j].at })
	return all
}

// until makes a next function stop handing out ops at the deadline.
func until(deadline time.Time, gen func(cl int) *op) func(cl int) *op {
	return func(cl int) *op {
		if !time.Now().Before(deadline) {
			return nil
		}
		return gen(cl)
	}
}
