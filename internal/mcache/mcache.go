// Package mcache caches constructed simulation machines by topology
// key. Building a core.Machine is the expensive part of a sweep cell:
// layout measurement, 2K router constructions, per-tree delay tables
// and scratch arenas. Everything a workload then mutates — registers,
// edge occupancy, fault views, the sticky error — is cheap to scrub
// in place (core.Machine.Recycle). The cache exploits that split:
// analysis sweeps check out a machine per (network, size, cycle
// length, config) cell, run, and return it scrubbed, so construction
// cost is paid once per distinct topology per process instead of once
// per cell, and repeated sweeps (cmd/otbench re-runs whole tables per
// benchmark iteration) run allocation-lean.
//
// Ownership protocol: a checked-out machine is exclusively the
// caller's — fault plans, register writes and tracer attachments
// mutate the checked-out copy only. The cache retains no template; it
// holds only idle machines, each recycled to as-constructed state on
// Return, so a cache hit is observationally identical to a fresh
// construction (the determinism tests of internal/analysis pin this
// across cache reuse).
package mcache

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/vlsi"
)

// Key identifies one machine construction recipe. Two equal keys must
// describe bit-identical constructions: the network kind, the logical
// base side, the OTC cycle length (0 where the network has none), and
// the vlsi configuration (word width + delay model, by name — models
// are stateless).
type Key struct {
	Network  string
	K        int
	CycleLen int
	WordBits int
	Model    string
}

// OTNKey is the key of core.New(k, cfg).
func OTNKey(k int, cfg vlsi.Config) Key {
	return Key{Network: "otn", K: k, WordBits: cfg.WordBits, Model: cfg.Model.Name()}
}

// ScaledOTNKey is the key of core.NewScaled(k, cfg).
func ScaledOTNKey(k int, cfg vlsi.Config) Key {
	return Key{Network: "otn-scaled", K: k, WordBits: cfg.WordBits, Model: cfg.Model.Name()}
}

// EmulatedOTNKey is the key of otc.NewEmulatedOTN(k, l, cfg).
func EmulatedOTNKey(k, l int, cfg vlsi.Config) Key {
	return Key{Network: "otc-emulated", K: k, CycleLen: l, WordBits: cfg.WordBits, Model: cfg.Model.Name()}
}

// Stats counts cache traffic.
type Stats struct {
	Hits    int // checkouts served from the free list (or a direct Return handoff)
	Misses  int // checkouts that had to build
	Waits   int // checkouts that blocked on the per-key capacity bound
	Returns int // machines recycled back into the free list (or handed to a waiter)
	Drops   int // returned machines discarded (sticky error / mutated fault plan)
}

// Cache is a thread-safe free list of idle machines per key. The zero
// value is not usable; call New or NewWithCapacity.
type Cache struct {
	mu    sync.Mutex
	free  map[Key][]*core.Machine
	stats Stats

	// capacity bounds, per key, the number of machines checked out at
	// once; 0 means unbounded (Checkout never blocks). With a bound,
	// CheckoutContext blocks when the key is at capacity with no idle
	// machine, until a Return frees one or the context is cancelled.
	// The free-list-first discipline keeps out+idle ≤ capacity per key.
	capacity int
	out      map[Key]int
	waiters  map[Key][]*waiter
}

// waiter is one blocked CheckoutContext. Its channel (buffered, so a
// handoff never blocks the returner) receives either a recycled
// machine — ownership transfers directly, bypassing the free list —
// or nil, a "slot freed, retry" token sent when a drop or build
// failure lowers the outstanding count.
type waiter struct {
	ch chan *core.Machine
}

// New returns an empty, unbounded cache: checkouts never block, and
// concurrent misses on one key each build.
func New() *Cache { return NewWithCapacity(0) }

// NewWithCapacity returns an empty cache that allows at most perKey
// machines of each key to be checked out at once (0 = unbounded).
// Long-running services bound their machine memory this way: the
// (k×k)-OTN construction is the expensive, large object, and the
// bound turns "build another" into "wait for a tenant to finish".
func NewWithCapacity(perKey int) *Cache {
	return &Cache{
		free:     make(map[Key][]*core.Machine),
		capacity: perKey,
		out:      make(map[Key]int),
		waiters:  make(map[Key][]*waiter),
	}
}

// Checkout hands out an idle machine for key, building one with build
// on a miss. On an unbounded cache it never blocks; on a bounded one
// it waits indefinitely for capacity (use CheckoutContext to bound
// the wait).
func (c *Cache) Checkout(key Key, build func() (*core.Machine, error)) (*core.Machine, error) {
	return c.CheckoutContext(context.Background(), key, build)
}

// CheckoutContext is Checkout under a context: if the key is at its
// capacity bound with nothing idle, the call blocks until a Return
// hands a machine over, a drop frees a build slot, or ctx is
// cancelled. Cancellation is loss-free: a machine handed to a waiter
// that just gave up is parked back in the free list, and a freed slot
// is passed to the next waiter — no goroutine, machine or capacity
// slot leaks (the stress tests in this package pin all three).
func (c *Cache) CheckoutContext(ctx context.Context, key Key, build func() (*core.Machine, error)) (*core.Machine, error) {
	waited := false
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if list := c.free[key]; len(list) > 0 {
			m := list[len(list)-1]
			list[len(list)-1] = nil
			c.free[key] = list[:len(list)-1]
			c.out[key]++
			c.stats.Hits++
			c.mu.Unlock()
			return m, nil
		}
		if c.capacity == 0 || c.out[key] < c.capacity {
			c.out[key]++
			c.stats.Misses++
			c.mu.Unlock()
			m, err := build()
			if err != nil {
				// The reserved slot frees; pass it on so a blocked
				// checkout can try its own build.
				c.mu.Lock()
				c.out[key]--
				c.wakeLocked(key)
				c.mu.Unlock()
				return nil, err
			}
			return m, nil
		}
		w := &waiter{ch: make(chan *core.Machine, 1)}
		c.waiters[key] = append(c.waiters[key], w)
		if !waited {
			waited = true
			c.stats.Waits++
		}
		c.mu.Unlock()
		select {
		case m := <-w.ch:
			if m != nil {
				return m, nil // direct handoff; out is unchanged by design
			}
			// Slot token: retry from the top (another goroutine may
			// have taken the slot first — that is fairness, not loss).
		case <-ctx.Done():
			c.mu.Lock()
			removed := c.removeWaiterLocked(key, w)
			c.mu.Unlock()
			if !removed {
				// A handoff raced the cancellation: the channel holds
				// a machine or a slot token. Recover it so nothing is
				// lost — the machine goes back through Return, the
				// token wakes the next waiter.
				if m := <-w.ch; m != nil {
					c.Return(key, m)
				} else {
					c.mu.Lock()
					c.wakeLocked(key)
					c.mu.Unlock()
				}
			}
			return nil, ctx.Err()
		}
	}
}

// wakeLocked passes a freed capacity slot to the oldest waiter (as a
// nil token — the waiter re-runs the checkout protocol). Callers hold
// c.mu.
func (c *Cache) wakeLocked(key Key) {
	ws := c.waiters[key]
	if len(ws) == 0 {
		return
	}
	w := ws[0]
	ws[0] = nil
	c.waiters[key] = ws[1:]
	w.ch <- nil
}

// removeWaiterLocked unregisters w; false means a handoff already
// popped it (its channel holds the goods). Callers hold c.mu.
func (c *Cache) removeWaiterLocked(key Key, w *waiter) bool {
	ws := c.waiters[key]
	for i := range ws {
		if ws[i] == w {
			copy(ws[i:], ws[i+1:])
			ws[len(ws)-1] = nil
			c.waiters[key] = ws[:len(ws)-1]
			return true
		}
	}
	return false
}

// Return recycles m to as-constructed state and parks it for the next
// Checkout of key. A machine still carrying a sticky error is dropped
// instead — the error says its last run went somewhere the recycle
// contract was not written for, and rebuilding is cheap insurance.
// A machine whose fault plan mutated mid-run (the recovery
// supervisor's MergeFaults) is dropped for the same reason: its fault
// history is no longer the one injected at checkout, so rather than
// proving the dynamic state scrubbed we decline to park it (the
// recycled-equals-fresh test in this package documents that a scrub
// would in fact be clean — the drop is policy, not necessity).
// Return accepts nil (from error paths) as a no-op.
func (c *Cache) Return(key Key, m *core.Machine) {
	if m == nil {
		return
	}
	if m.Err() != nil || m.FaultsMutated() {
		c.mu.Lock()
		c.stats.Drops++
		c.out[key]--
		c.wakeLocked(key) // the freed slot lets a blocked checkout build
		c.mu.Unlock()
		return
	}
	m.Recycle()
	c.mu.Lock()
	if ws := c.waiters[key]; len(ws) > 0 {
		// Hand the machine straight to the oldest waiter: ownership
		// transfers without touching the free list or the outstanding
		// count (one holder swapped for another).
		w := ws[0]
		ws[0] = nil
		c.waiters[key] = ws[1:]
		c.stats.Returns++
		c.stats.Hits++
		c.mu.Unlock()
		w.ch <- m
		return
	}
	c.free[key] = append(c.free[key], m)
	c.out[key]--
	c.stats.Returns++
	c.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
