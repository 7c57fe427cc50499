package tree

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/vlsi"
)

func faultGeom(t *testing.T, k int) (*layout.TreeGeom, vlsi.Config) {
	t.Helper()
	w := vlsi.WordBitsFor(k * k)
	o, err := layout.BuildOTN(k, w)
	if err != nil {
		t.Fatal(err)
	}
	return o.RowTree, vlsi.Config{WordBits: w, Model: vlsi.LogDelay{}}
}

// TestSetFaultsReachability: a dead edge cuts exactly its subtree's
// leaves, and detaching the view restores the healthy tree.
func TestSetFaultsReachability(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	tr, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At K=8 the leaves are nodes 8..15; node 5's children are nodes
	// 10 and 11, i.e. leaf indices 2 and 3.
	tr.SetFaults(fault.New(1).KillEdge(true, 0, 5).ForTree(true, 0, 8, nil))
	cut := tr.CutLeaves()
	if len(cut) != 2 || cut[0] != 2 || cut[1] != 3 {
		t.Fatalf("cut leaves %v, want [2 3]", cut)
	}
	tr.SetFaults(nil)
	if tr.CutLeaves() != nil {
		t.Error("detaching the view left cut leaves behind")
	}
}

// TestZeroFaultIdentical: a tree with no attached view and a tree
// that had a view attached and detached produce bit-identical times.
func TestZeroFaultIdentical(t *testing.T) {
	g, cfg := faultGeom(t, 16)
	a, _ := New(g, cfg)
	b, _ := New(g, cfg)
	b.SetFaults(fault.New(3).KillEdge(true, 0, 4).ForTree(true, 0, 16, nil))
	b.SetFaults(nil)
	rels := make([]vlsi.Time, 16)
	for j := range rels {
		rels[j] = vlsi.Time(j % 7)
	}
	if a.Reduce(rels) != b.Reduce(rels) {
		t.Error("reduce times differ after detach")
	}
	pa, da := a.Broadcast(5)
	pb, db := b.Broadcast(5)
	if da != db {
		t.Error("broadcast done differs after detach")
	}
	for j := range pa {
		if pa[j] != pb[j] {
			t.Fatalf("leaf %d broadcast differs", j)
		}
	}
}

// TestBroadcastFaulty: cut leaves report Unreached, live leaves get
// the word at a real time, and live-leaf times match the healthy
// flood (a cut subtree frees no contended resource in this pattern).
func TestBroadcastFaulty(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	tr, _ := New(g, cfg)
	tr.SetFaults(fault.New(1).KillEdge(true, 0, 5).ForTree(true, 0, 8, nil))
	per, done := tr.Broadcast(0)
	if per[2] != Unreached || per[3] != Unreached {
		t.Errorf("cut leaves 2,3 reached: %v", per)
	}
	for _, j := range []int{0, 1, 4, 5, 6, 7} {
		if per[j] < 0 {
			t.Errorf("live leaf %d unreached", j)
		}
		if per[j] > done {
			t.Errorf("leaf %d after done", j)
		}
	}
	healthy, _ := New(g, cfg)
	hper, _ := healthy.Broadcast(0)
	for _, j := range []int{0, 1, 4, 5, 6, 7} {
		if per[j] != hper[j] {
			t.Errorf("live leaf %d: faulty %d vs healthy %d", j, per[j], hper[j])
		}
	}
}

// TestBroadcastRootDead: a dead root IP reaches nothing.
func TestBroadcastRootDead(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	tr, _ := New(g, cfg)
	tr.SetFaults(fault.New(1).KillIP(true, 0, 1).ForTree(true, 0, 8, nil))
	per, done := tr.Broadcast(0)
	if done != Unreached {
		t.Errorf("done = %d with a dead root", done)
	}
	for j, p := range per {
		if p != Unreached {
			t.Errorf("leaf %d reached through a dead root", j)
		}
	}
	if tr.Reduce(make([]vlsi.Time, 8)) != Unreached {
		t.Error("reduce produced a word through a dead root")
	}
}

// TestReduceFaultyLiveOnly: with a cut subtree the combining ascent
// still completes over the live leaves.
func TestReduceFaultyLiveOnly(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	tr, _ := New(g, cfg)
	tr.SetFaults(fault.New(1).KillEdge(true, 0, 5).ForTree(true, 0, 8, nil))
	d := tr.Reduce(make([]vlsi.Time, 8))
	if d <= 0 {
		t.Fatalf("live-only reduce returned %d", d)
	}
	healthy, _ := New(g, cfg)
	hd := healthy.Reduce(make([]vlsi.Time, 8))
	if d > hd {
		t.Errorf("live-only reduce (%d) slower than healthy (%d)", d, hd)
	}
}

// TestTransientRetry: a transient-corrupted ascent retries and the
// retry is charged in bit-times (strictly later completion than the
// healthy ascent), with health counters recording it.
func TestTransientRetry(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	h := &fault.Health{}
	// Rate high enough that 64 ascents certainly include corruption.
	view := fault.New(77).WithTransients(0.5).ForTree(true, 0, 8, h)
	tr, _ := New(g, cfg)
	tr.SetFaults(view)
	healthy, _ := New(g, cfg)
	rels := make([]vlsi.Time, 8)
	sawRetry := false
	for i := 0; i < 64; i++ {
		tr.Reset()
		healthy.Reset()
		d := tr.Reduce(rels)
		hd := healthy.Reduce(rels)
		if d < hd {
			t.Fatalf("ascent %d: faulty reduce (%d) beat healthy (%d)", i, d, hd)
		}
		if d > hd {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("no ascent was ever delayed at transient rate 0.5")
	}
	if h.Transients == 0 || h.Retries == 0 || h.RetryLatency == 0 {
		t.Errorf("health not recorded: %+v", h)
	}
	if h.Transients < h.Retries {
		t.Errorf("retries (%d) exceed transients (%d)", h.Retries, h.Transients)
	}
}

// TestTransientDeterminism: two trees with the same seed see the same
// delays.
func TestTransientDeterminism(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	run := func() []vlsi.Time {
		tr, _ := New(g, cfg)
		tr.SetFaults(fault.New(5).WithTransients(0.3).ForTree(true, 2, 8, &fault.Health{}))
		out := make([]vlsi.Time, 32)
		for i := range out {
			tr.Reset()
			out[i] = tr.Reduce(make([]vlsi.Time, 8))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ascent %d: %d vs %d — schedule not reproducible", i, a[i], b[i])
		}
	}
}

// TestStormBudget: at an extreme corruption rate the retry budget is
// exhausted and recorded as a failure rather than looping forever.
func TestStormBudget(t *testing.T) {
	g, cfg := faultGeom(t, 8)
	h := &fault.Health{}
	p := fault.New(11).WithTransients(0.999)
	p.MaxRetries = 2
	tr, _ := New(g, cfg)
	tr.SetFaults(p.ForTree(true, 0, 8, h))
	for i := 0; i < 50 && h.Failures() == 0; i++ {
		tr.Reset()
		tr.Reduce(make([]vlsi.Time, 8))
	}
	if h.Failures() == 0 {
		t.Fatal("no storm failure recorded at rate 0.999")
	}
	var se *fault.StormError
	if !errors.As(h.Err(), &se) {
		t.Errorf("want *fault.StormError in %v", h.Err())
	}
}
