package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestGroupFirstErrorWins(t *testing.T) {
	var g Group
	g.SetLimit(2)
	sentinel := errors.New("boom")
	for i := 0; i < 10; i++ {
		i := i
		g.Go(func() error {
			if i == 3 {
				return sentinel
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("Wait() = %v, want %v", err, sentinel)
	}
}

func TestGroupLimitBoundsConcurrency(t *testing.T) {
	var g Group
	const limit = 3
	g.SetLimit(limit)
	var cur, peak atomic.Int32
	for i := 0; i < 32; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", p, limit)
	}
}
