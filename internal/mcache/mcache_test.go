package mcache

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vlsi"
)

const testK = 16

func testKey() Key { return OTNKey(testK, vlsi.DefaultConfig(testK*testK)) }

func buildOTN() (*core.Machine, error) {
	return core.New(testK, vlsi.DefaultConfig(testK*testK))
}

// workload runs a small program and reports its completion time and
// an output word — enough state to witness any recycle leak.
func workload(m *core.Machine) (vlsi.Time, int64, error) {
	m.Reset()
	for i := 0; i < m.K; i++ {
		m.SetRowRoot(i, int64(i*3+1))
	}
	done := m.ParDo(true, 0, func(v core.Vector, rel vlsi.Time) vlsi.Time {
		return m.RootToLeaf(v, nil, core.RegA, rel)
	})
	done = m.ParDo(false, done, func(v core.Vector, rel vlsi.Time) vlsi.Time {
		return m.LeafToLeaf(v, core.One(v.Index), core.RegA, nil, core.RegB, rel)
	})
	done = m.CountLeafToRoot(core.Row(2), core.RegFlag, done)
	return done, m.ColRoot(3), m.Err()
}

func TestCheckoutBuildsThenReuses(t *testing.T) {
	c := New()
	m1, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	c.Return(testKey(), m1)
	m2, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("second checkout did not reuse the returned machine")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Returns != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 return", s)
	}
	if idleCount(c, testKey()) != 0 {
		t.Fatalf("idle = %d after checkout, want 0", idleCount(c, testKey()))
	}
}

// A machine that ran a faulted, register-dirty workload and was
// returned must behave exactly like a fresh construction on its next
// checkout: same times, same outputs, no fault residue.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	fresh, err := buildOTN()
	if err != nil {
		t.Fatal(err)
	}
	wantDone, wantWord, werr := workload(fresh)
	if werr != nil {
		t.Fatal(werr)
	}

	c := New()
	m, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty run: fault plan attached, registers and roots scribbled.
	if err := m.InjectFaults(fault.New(3).KillEdge(true, 1, 9).StickBP(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := workload(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.K; i++ {
		m.SetColRoot(i, -77)
	}
	c.Return(testKey(), m)

	got, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("checkout did not reuse the recycled machine")
	}
	if got.Faulty() {
		t.Fatal("recycled machine still faulty")
	}
	gotDone, gotWord, gerr := workload(got)
	if gerr != nil {
		t.Fatal(gerr)
	}
	if gotDone != wantDone || gotWord != wantWord {
		t.Fatalf("recycled run = (%d, %d), fresh run = (%d, %d)", gotDone, gotWord, wantDone, wantWord)
	}
}

// Machines returned with a sticky error are dropped, not reused.
func TestReturnDropsErroredMachine(t *testing.T) {
	c := New()
	m, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafToRoot(core.Row(0), func(int) bool { return false }, core.RegA, 0) // selector error: no source
	if m.Err() == nil {
		t.Fatal("expected a sticky error")
	}
	c.Return(testKey(), m)
	if s := c.Stats(); s.Drops != 1 || s.Returns != 0 {
		t.Fatalf("stats = %+v, want 1 drop / 0 returns", s)
	}
	if idleCount(c, testKey()) != 0 {
		t.Fatal("errored machine entered the free list")
	}
}

// The cache is safe under the concurrent checkout/return traffic of
// parallel analysis cells (run under -race by make race).
func TestConcurrentCheckoutReturn(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				m, err := c.Checkout(testKey(), buildOTN)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := workload(m); err != nil {
					t.Error(err)
					return
				}
				c.Return(testKey(), m)
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != 40 || s.Returns != 40 {
		t.Fatalf("stats = %+v, want 40 checkouts and 40 returns", s)
	}
}

// The checkout hit path allocates nothing: a sweep re-checking out a
// cached machine pays map lookup and recycle, not construction.
func TestCheckoutHitAllocationFree(t *testing.T) {
	c := New()
	m, err := c.Checkout(testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	c.Return(testKey(), m)
	key := testKey()
	if got := testing.AllocsPerRun(100, func() {
		m, _ := c.Checkout(key, buildOTN)
		c.Return(key, m)
	}); got > 0 {
		t.Errorf("checkout/return hit path: %.1f allocs/op, want 0", got)
	}
}

// idleCount and outCount read how many machines of key are parked and
// checked out, under the cache's lock.
func idleCount(c *Cache, key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free[key])
}

func outCount(c *Cache, key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out[key]
}
