package mcache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBoundedCheckoutBlocksUntilReturn pins the capacity semantics: a
// second checkout on a full key waits, and a Return hands its machine
// straight over.
func TestBoundedCheckoutBlocksUntilReturn(t *testing.T) {
	c := NewWithCapacity(1)
	m1, err := c.CheckoutContext(context.Background(), testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	var m2ok atomic.Bool
	go func() {
		m2, err := c.CheckoutContext(context.Background(), testKey(), buildOTN)
		if err == nil && m2 == m1 {
			m2ok.Store(true)
			c.Return(testKey(), m2)
		}
		got <- err
	}()
	// The waiter must be blocked, not building a second machine.
	time.Sleep(20 * time.Millisecond)
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("bounded cache built %d machines, want 1", s.Misses)
	}
	c.Return(testKey(), m1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if !m2ok.Load() {
		t.Fatal("waiter did not receive the returned machine by handoff")
	}
	if s := c.Stats(); s.Waits != 1 {
		t.Fatalf("Waits = %d, want 1", s.Waits)
	}
	if out := outCount(c, testKey()); out != 0 {
		t.Fatalf("outstanding = %d after all returns", out)
	}
}

// TestCheckoutContextCancelledWhileEmpty pins the satellite contract:
// cancelling a checkout that is blocked on an empty, at-capacity key
// returns ctx.Err() promptly, leaks no goroutine, and loses no
// capacity slot — the slot is immediately usable by the next caller.
func TestCheckoutContextCancelledWhileEmpty(t *testing.T) {
	c := NewWithCapacity(1)
	m, err := c.CheckoutContext(context.Background(), testKey(), buildOTN)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.CheckoutContext(ctx, testKey(), buildOTN)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled checkout returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled checkout never returned")
	}
	waitGoroutines(t, before)

	// No lost slot: returning the original machine must let a fresh
	// bounded checkout succeed immediately.
	c.Return(testKey(), m)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	m2, err := c.CheckoutContext(ctx2, testKey(), buildOTN)
	if err != nil {
		t.Fatalf("slot lost after cancellation: %v", err)
	}
	c.Return(testKey(), m2)
}

// TestBoundedCheckoutStress hammers a capacity-2 key from many
// goroutines under -race: random checkout/run/return cycles with a
// fraction of aggressively-timed cancellations racing the handoffs.
// Afterwards every machine and every slot must be accounted for.
func TestBoundedCheckoutStress(t *testing.T) {
	const cap, goroutines, iters = 2, 16, 30
	c := NewWithCapacity(cap)
	before := runtime.NumGoroutine()
	var cancelled, served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// A third of the attempts carry a tiny deadline that
				// often fires mid-wait, racing Return's handoff.
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if (g+i)%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*time.Millisecond)
				}
				m, err := c.CheckoutContext(ctx, testKey(), buildOTN)
				cancel()
				if err != nil {
					cancelled.Add(1)
					continue
				}
				if _, _, werr := workload(m); werr != nil {
					t.Errorf("workload: %v", werr)
				}
				served.Add(1)
				c.Return(testKey(), m)
			}
		}(g)
	}
	wg.Wait()

	if out := outCount(c, testKey()); out != 0 {
		t.Fatalf("outstanding = %d after every goroutine returned", out)
	}
	if idle := idleCount(c, testKey()); idle > cap {
		t.Fatalf("idle = %d machines parked, capacity %d — a slot leaked", idle, cap)
	}
	if s := c.Stats(); s.Misses > cap {
		t.Fatalf("built %d machines on a capacity-%d key", s.Misses, cap)
	}
	if served.Load() == 0 {
		t.Fatal("stress served no checkouts at all")
	}
	waitGoroutines(t, before)

	// The cache must still be fully live: capacity-many concurrent
	// checkouts all succeed.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1, err1 := c.CheckoutContext(ctx, testKey(), buildOTN)
	m2, err2 := c.CheckoutContext(ctx, testKey(), buildOTN)
	if err1 != nil || err2 != nil {
		t.Fatalf("post-stress checkouts failed: %v, %v", err1, err2)
	}
	c.Return(testKey(), m1)
	c.Return(testKey(), m2)
}

// TestCancelledBeforeWaitReturnsImmediately: an already-dead context
// never checks out, even when a machine is idle.
func TestCancelledBeforeWaitReturnsImmediately(t *testing.T) {
	c := NewWithCapacity(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CheckoutContext(ctx, testKey(), buildOTN); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("dead-context checkout built a machine")
	}
}

// TestBuildFailureFreesSlot: a failed build releases its reserved
// capacity slot to the next waiter instead of wedging the key.
func TestBuildFailureFreesSlot(t *testing.T) {
	c := NewWithCapacity(1)
	boom := errors.New("boom")
	failing := func() (*core.Machine, error) { return nil, boom }
	if _, err := c.CheckoutContext(context.Background(), testKey(), failing); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the build error", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := c.CheckoutContext(ctx, testKey(), buildOTN)
	if err != nil {
		t.Fatalf("slot not freed after build failure: %v", err)
	}
	c.Return(testKey(), m)
}

// waitGoroutines polls until the goroutine count returns to (at most)
// its baseline, failing after a grace period — the leak check the
// server's drain test reuses.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}
