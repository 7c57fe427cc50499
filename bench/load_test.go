package main

import (
	"context"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestPhaseAgainstServer drives NDJSON arrays closed-loop into an
// in-process server from two clients, counts every job line, and
// checks the kept replies against the replay.
func TestPhaseAgainstServer(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueCap: serverQueue, Rate: serverRate, Burst: serverRate, SweepInterval: -1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	r := &runner{seed: 4, clients: 2}
	w := newBulk(r).(*jobsWorkload)
	c := newClient(ts.URL, 2)
	defer c.close()

	const arrays = 12
	var sent atomic.Int64
	tl := phase(context.Background(), c, 2, func(cl int) *op {
		if sent.Add(1) > arrays {
			return nil
		}
		return w.next(cl)
	}, w.judge, func(*op) bool { return true })
	if tl.attempted != arrays*bulkJobs || tl.ok != tl.attempted || tl.failed+tl.wrong != 0 {
		t.Fatalf("attempted %d, ok %d, failed %d, wrong %d; want %d all ok",
			tl.attempted, tl.ok, tl.failed, tl.wrong, arrays*bulkJobs)
	}
	if len(tl.done) != arrays || len(tl.kept) != arrays {
		t.Fatalf("%d completions and %d kept replies, want %d", len(tl.done), len(tl.kept), arrays)
	}

	sort.Slice(tl.kept, func(i, j int) bool { return tl.kept[i].op.idx < tl.kept[j].op.idx })
	got, err := w.replay(r, tl.kept, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.wrong) != 0 {
		t.Errorf("replay disagrees with the server on ops %v", got.wrong)
	}
	if len(got.tr.spans) == 0 {
		t.Error("traced replay recorded no spans")
	}
}
