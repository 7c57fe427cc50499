package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyCanonical(t *testing.T) {
	type spec struct {
		Alg  string
		N    int
		Seed uint64
	}
	a := Key(spec{"sort", 16, 1})
	b := Key(spec{"sort", 16, 1})
	if a != b {
		t.Fatalf("identical specs keyed differently: %s vs %s", a, b)
	}
	for _, other := range []spec{{"cc", 16, 1}, {"sort", 32, 1}, {"sort", 16, 2}} {
		if Key(other) == a {
			t.Fatalf("distinct spec %+v collided with %+v", other, spec{"sort", 16, 1})
		}
	}
	if want := sha256.Sum256([]byte(`{"Alg":"sort","N":16,"Seed":1}`)); a != string(want[:]) {
		t.Fatalf("key %x is not the raw sha256 of the canonical JSON (%x)", a, want)
	}
}

func TestLookupStoreHit(t *testing.T) {
	c := New(1 << 20)
	body, f, leader := c.Lookup("k")
	if body != nil || !leader {
		t.Fatalf("first lookup: body=%v leader=%v, want miss+leader", body, leader)
	}
	c.Resolve("k", f, "outcome", []byte("result"))
	body, f2, leader := c.Lookup("k")
	if string(body) != "result" || f2 != nil || leader {
		t.Fatalf("second lookup: body=%q flight=%v leader=%v, want stored hit", body, f2, leader)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.Entries != 1 || s.Bytes != 6 {
		t.Fatalf("stats %+v", s)
	}
}

func TestResolveWithoutBodyDoesNotStore(t *testing.T) {
	c := New(1 << 20)
	_, f, _ := c.Lookup("k")
	c.Resolve("k", f, fmt.Errorf("execution failed"), nil)
	body, f2, leader := c.Lookup("k")
	if body != nil || !leader {
		t.Fatalf("failed outcome must not be cached: body=%v leader=%v", body, leader)
	}
	c.Resolve("k", f2, nil, nil)
}

func TestResolveIdempotent(t *testing.T) {
	c := New(1 << 20)
	_, f, _ := c.Lookup("k")
	c.Resolve("k", f, "first", []byte("first"))
	c.Resolve("k", f, "second", []byte("second")) // deferred safety-net
	v, body := f.Value()
	if v != "first" || string(body) != "first" {
		t.Fatalf("second Resolve overwrote the flight: %v %q", v, body)
	}
	got, _, _ := c.Lookup("k")
	if string(got) != "first" {
		t.Fatalf("stored body %q, want the first resolution", got)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New(10)
	put := func(key, body string) {
		_, f, leader := c.Lookup(key)
		if !leader {
			t.Fatalf("expected leadership for %s", key)
		}
		c.Resolve(key, f, nil, []byte(body))
	}
	put("a", "aaaa") // 4 bytes
	put("b", "bbbb") // 8 bytes
	// Touch a so b is the LRU tail.
	if body, _, _ := c.Lookup("a"); body == nil {
		t.Fatal("a missing before eviction")
	}
	put("c", "cccc") // 12 bytes > 10: evict b (tail)
	if body, _, _ := c.Lookup("b"); body != nil {
		t.Fatal("b should have been evicted")
	}
	if body, _, _ := c.Lookup("a"); body == nil {
		t.Fatal("a (recently used) should have survived")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Bytes != 8 || s.Entries != 2 {
		t.Fatalf("stats after eviction %+v", s)
	}
	// Clean up the leader flights the probing Lookups opened.
	for _, k := range []string{"b"} {
		if _, f, leader := c.Lookup(k); leader {
			c.Resolve(k, f, nil, nil)
		}
	}
}

func TestOversizeBodyNotStored(t *testing.T) {
	c := New(4)
	_, f, _ := c.Lookup("big")
	c.Resolve("big", f, nil, []byte("way too large"))
	if _, body := f.Value(); body == nil {
		t.Fatal("flight followers must still receive the oversize body")
	}
	if body, _, _ := c.Lookup("big"); body != nil {
		t.Fatal("oversize body must not enter the LRU")
	}
	if s := c.Stats(); s.Stores != 0 || s.Bytes != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestSingleflightExactlyOnce is the coalescing contract under
// concurrent submission: N goroutines look up one key while no body
// is stored; exactly one becomes the leader and executes, every
// follower receives the leader's bytes, and nobody is lost.
func TestSingleflightExactlyOnce(t *testing.T) {
	c := New(1 << 20)
	const goroutines = 64
	var executions atomic.Int64
	var wg sync.WaitGroup
	release := make(chan struct{})
	bodies := make([][]byte, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, f, leader := c.Lookup("spec")
			switch {
			case body != nil:
				bodies[i] = body
			case leader:
				<-release // hold the flight open so followers pile on
				executions.Add(1)
				c.Resolve("spec", f, nil, []byte("the answer"))
				bodies[i] = []byte("the answer")
			default:
				<-f.Done()
				_, fb := f.Value()
				bodies[i] = fb
			}
		}(i)
	}
	close(release)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions, want exactly 1", n)
	}
	for i, b := range bodies {
		if string(b) != "the answer" {
			t.Fatalf("goroutine %d got %q — a lost follower", i, b)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses %d, want 1 (one leader)", s.Misses)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Fatalf("hits %d + coalesced %d, want %d followers accounted",
			s.Hits, s.Coalesced, goroutines-1)
	}
}

// TestConcurrentDistinctKeys drives many goroutines over overlapping
// keys under -race: the invariant is that every caller either leads
// exactly one resolution or observes a resolved outcome.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(1 << 10) // small budget: evictions interleave with flights
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%17)
				body, f, leader := c.Lookup(key)
				switch {
				case body != nil:
					if len(body) == 0 {
						t.Errorf("empty stored body for %s", key)
					}
				case leader:
					c.Resolve(key, f, nil, []byte(key+"-body"))
				default:
					<-f.Done()
					if _, fb := f.Value(); fb == nil {
						t.Errorf("follower of %s got nil body", key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Bytes > 1<<10 {
		t.Fatalf("budget exceeded: %+v", s)
	}
}

// TestEntryBytes bounds what a stored result costs the server's heap
// beyond its body: key, LRU links and map slot. A 152-byte body was a
// served sort's compact JSON; at 100K stored entries the live heap per
// entry, body included, must stay at or below 275 bytes (about 259
// measured).
func TestEntryBytes(t *testing.T) {
	const (
		entries  = 100_000
		bodySize = 152
		maxBytes = 275
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(0)
	var seed [8]byte
	for i := 0; i < entries; i++ {
		binary.LittleEndian.PutUint64(seed[:], uint64(i))
		sum := sha256.Sum256(seed[:])
		key := string(sum[:])
		_, f, leader := c.Lookup(key)
		if !leader {
			t.Fatalf("entry %d: fresh key did not lead", i)
		}
		c.Resolve(key, f, nil, make([]byte, bodySize))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s := c.Stats(); s.Entries != entries || s.Bytes != entries*bodySize {
		t.Fatalf("stats %+v, want %d entries of %d bytes", s, entries, bodySize)
	}
	per := float64(after.HeapAlloc-before.HeapAlloc) / entries
	t.Logf("%.1f live heap bytes per stored %d-byte body", per, bodySize)
	if per > maxBytes {
		t.Errorf("%.1f bytes per entry, want <= %d", per, maxBytes)
	}
	runtime.KeepAlive(c)
}
