package resilience_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/packed"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// TestSessionStateRoundTrip pins the durable encoding: capture → JSON
// → decode reproduces the graph exactly and the labels verify against
// the oracle.
func TestSessionStateRoundTrip(t *testing.T) {
	for _, k := range []int{4, 16, 17, 64} {
		r := workload.NewRNG(uint64(k))
		g := r.Gnp(k, 2.0/float64(k))
		labels := workload.NewOracle(g).Labels()
		s := resilience.CaptureSession(g, labels)

		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back resilience.SessionState
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		g2, err := back.Graph()
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if !reflect.DeepEqual(g2.Adj, g.Adj) {
			t.Fatalf("k=%d: adjacency did not round-trip", k)
		}
		if err := back.VerifyLabels(g2); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestSessionStateRejectsDamage pins loud failure on malformed
// snapshots: wrong shapes, bad base64, asymmetry, self-loops, and
// labels that disagree with the graph.
func TestSessionStateRejectsDamage(t *testing.T) {
	r := workload.NewRNG(3)
	g := r.Gnp(8, 0.4)
	labels := workload.NewOracle(g).Labels()
	fresh := func() *resilience.SessionState { return resilience.CaptureSession(g, labels) }

	cases := map[string]func(*resilience.SessionState){
		"short adj":  func(s *resilience.SessionState) { s.Adj = s.Adj[:4] },
		"bad base64": func(s *resilience.SessionState) { s.Adj[2] = "!!!" },
		"short row":  func(s *resilience.SessionState) { s.Adj[2] = "" },
		"bad labels": func(s *resilience.SessionState) { s.Labels = s.Labels[:3] },
		"zero n":     func(s *resilience.SessionState) { s.N = 0 },
	}
	for name, mutate := range cases {
		s := fresh()
		mutate(s)
		if _, err := s.Graph(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Asymmetry: decode a hand-built state with a one-directional edge.
	s := resilience.CaptureSession(workload.NewGraph(8), make([]int64, 8))
	asym := workload.NewGraph(8)
	asym.Adj[1][2] = true // no reverse edge
	s2 := resilience.CaptureSession(asym, make([]int64, 8))
	_ = s
	if _, err := s2.Graph(); err == nil {
		t.Error("asymmetric adjacency accepted")
	}

	// Wrong labels must fail verification even on a healthy graph.
	bad := fresh()
	bad.Labels[0]++
	g2, err := bad.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.VerifyLabels(g2); err == nil {
		t.Error("wrong labels verified")
	}
}

// TestResumeIncrementalContinuesBitIdentical is the recovery
// contract: an engine resumed from a captured snapshot streams the
// remaining batches with labels and per-batch completion times
// bit-identical to the uninterrupted scalar engine, and the resume
// itself charges zero simulated time. Only healthy sessions resume
// from compact state, and those run on the packed engine.
func TestResumeIncrementalContinuesBitIdentical(t *testing.T) {
	const k, prefix, suffix = 16, 3, 3
	r := workload.NewRNG(11)
	g := r.Gnp(k, 2.0/float64(k))
	stream := g.Clone()
	var batches [][]workload.EdgeUpdate
	for i := 0; i < prefix+suffix; i++ {
		batches = append(batches, r.UpdateBatch(stream, 2))
	}

	// Uninterrupted scalar reference.
	ref := newMachine(t, k)
	refInc, clock := graph.NewIncremental(ref, g, 0)
	for _, b := range batches[:prefix] {
		_, clock = refInc.ApplyBatch(b, clock)
	}
	mid := refInc.Graph().Clone()
	midLabels := refInc.Labels()

	// Packed resume from the captured midpoint.
	s := resilience.CaptureSession(mid, midLabels)
	blob, _ := json.Marshal(s)
	var loaded resilience.SessionState
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	g2, err := loaded.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.VerifyLabels(g2); err != nil {
		t.Fatal(err)
	}
	e, err := packed.EngineFor(k, ref.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	pres := packed.ResumeIncremental(e, g2, loaded.Labels)
	if !reflect.DeepEqual(pres.Labels(), midLabels) {
		t.Fatal("resumed labels differ at the checkpoint")
	}

	pClock := clock
	for i, b := range batches[prefix:] {
		wantLabels, wantClock := refInc.ApplyBatch(b, clock)
		clock = wantClock

		pLabels, pDone := pres.ApplyBatch(b, pClock)
		pClock = pDone
		if pDone != wantClock || !reflect.DeepEqual(pLabels, wantLabels) {
			t.Fatalf("packed batch %d: resumed (%d, %v) vs uninterrupted (%d, %v)",
				i, pDone, pLabels, wantClock, wantLabels)
		}
	}
}
