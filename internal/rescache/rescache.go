// Package rescache is the compute-once/serve-many layer: a
// content-addressed, byte-budgeted LRU cache of finished results plus
// singleflight in-flight coalescing. Every simulated report in this
// repository is a pure function of its canonical job spec, so the
// moment one execution of a spec finishes, every later — or
// concurrent — submission of the same spec can be answered from its
// bytes without holding a worker slot or a machine.
//
// The cache stores opaque []byte bodies under string keys produced by
// Key (canonical JSON, SHA-256). Lookup resolves a key three ways:
//
//   - a cached body: the caller serves it immediately (a hit)
//   - an in-flight Flight someone else leads: the caller waits on
//     Flight.Done and serves the leader's outcome (a coalesced
//     follower)
//   - neither: the caller becomes the leader of a new Flight, must
//     execute, and must Resolve the flight on every exit path so no
//     follower is ever lost
//
// The layer is deliberately orthogonal to idempotency dedup: that
// table answers retries of one client's key with the exact bytes that
// client was promised; this cache answers any client's identical spec
// with the canonical result bytes, which each caller re-labels with
// its own transport metadata.
package rescache

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
)

// DefaultBudget is the byte budget New applies to a non-positive
// request: 64 MiB of cached response bodies.
const DefaultBudget = 64 << 20

// Key canonicalizes v (any JSON-marshalable value whose fields are
// exactly the result-determining inputs) and hashes it. Two specs get
// the same key iff their canonical JSON is byte-identical, so any
// field that changes the result must be present in v — and any field
// that does not (client identity, deadlines, transport ids) must not.
// The key is the raw 32-byte digest, so it is not printable; a stored
// entry keeps one copy of it, in the allocation that holds its body.
func Key(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		// A fingerprint struct that cannot marshal is a programming
		// error; degrade to an unshareable key instead of panicking.
		return fmt.Sprintf("unkeyed:%p", &blob)
	}
	sum := sha256.Sum256(blob)
	return string(sum[:])
}

// Flight is one in-flight computation of a key. The leader resolves
// it exactly once with an outcome value (and optionally the body to
// publish); followers wait on Done and read the outcome with Value.
type Flight struct {
	done chan struct{}
	val  any
	body []byte
}

// Done is closed when the leader resolves the flight.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Value returns the leader's outcome and canonical body after Done is
// closed. The body is nil when the leader's execution produced
// nothing cacheable (shed, error, deadline).
func (f *Flight) Value() (any, []byte) { return f.val, f.body }

// Stats is the cache's observability surface.
type Stats struct {
	Hits      int64 `json:"hits"`      // lookups served from stored bytes
	Misses    int64 `json:"misses"`    // lookups that became flight leaders
	Coalesced int64 `json:"coalesced"` // followers attached to in-flight leaders
	Stores    int64 `json:"stores"`    // bodies published into the LRU
	Evictions int64 `json:"evictions"` // bodies evicted by the byte budget
	Entries   int   `json:"entries"`   // bodies resident right now
	Bytes     int64 `json:"bytes"`     // resident body bytes
	Budget    int64 `json:"budget"`    // configured byte budget
}

// entry is one stored body and its place in the LRU list. The list
// runs through the entries themselves. The key and the body share one
// allocation, kb: a length byte, the key, then the body; the map slot
// keys on the key's substring of it. So a stored result costs kb,
// this entry and a map slot, and a hit hands out a copy of its body.
type entry struct {
	kb         string
	prev, next *entry
}

// maxKeyLen is the longest key kb's length byte can hold. Key's
// digests are 32 bytes; a longer key is served to its flight but
// never stored.
const maxKeyLen = 255

func (e *entry) key() string { return e.kb[1 : 1+int(e.kb[0])] }

func (e *entry) body() string { return e.kb[1+int(e.kb[0]):] }

// Cache is the byte-budgeted LRU plus the flight table. All methods
// are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	// lru is the sentinel of a circular list of the stored entries:
	// lru.next is the most recently used, lru.prev the eviction tail.
	lru     entry
	byKey   map[string]*entry
	flights map[string]*Flight
	stats   Stats
}

// New builds a cache bounded to budget bytes of stored bodies
// (non-positive means DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	c := &Cache{
		budget:  budget,
		byKey:   make(map[string]*entry),
		flights: make(map[string]*Flight),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// unlink removes e from the LRU list.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// toFront links e in as the most recently used entry.
func (c *Cache) toFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// Lookup resolves key atomically:
//
//	body != nil              — stored hit; serve body (f is nil)
//	body == nil, leader      — the caller owns the new flight f and
//	                           MUST Resolve it on every exit path
//	body == nil, !leader     — follower; wait on f.Done()
//
// Callers must treat a returned body as immutable. A nil *Cache is a
// disabled layer: every lookup leads a nil flight, which Resolve
// ignores.
func (c *Cache) Lookup(key string) (body []byte, f *Flight, leader bool) {
	if c == nil {
		return nil, nil, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		e.unlink()
		c.toFront(e)
		c.stats.Hits++
		return []byte(e.body()), nil, false
	}
	if fl, ok := c.flights[key]; ok {
		c.stats.Coalesced++
		return nil, fl, false
	}
	fl := &Flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.stats.Misses++
	return nil, fl, true
}

// Resolve completes a flight with the leader's outcome. When body is
// non-nil it is additionally published into the LRU, so later lookups
// hit without a flight. Resolve is idempotent: the first call wins,
// later calls (a deferred safety-net after an explicit resolve) are
// no-ops. Followers blocked on the flight are released exactly once.
func (c *Cache) Resolve(key string, f *Flight, val any, body []byte) {
	if f == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-f.done:
		return // already resolved
	default:
	}
	f.val, f.body = val, body
	close(f.done)
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if body != nil {
		c.storeLocked(key, body)
	}
}

// storeLocked publishes body under key and evicts from the LRU tail
// until the budget holds. Oversize bodies, and bodies under keys
// longer than maxKeyLen, are served to the current flight but never
// stored.
func (c *Cache) storeLocked(key string, body []byte) {
	if int64(len(body)) > c.budget || len(key) > maxKeyLen {
		return
	}
	if e, ok := c.byKey[key]; ok {
		// A racing leader already published (two leaders can exist
		// transiently when a flight resolves between a follower's
		// Lookup and a fresh Lookup): keep the incumbent bytes.
		e.unlink()
		c.toFront(e)
		return
	}
	var kb strings.Builder
	kb.Grow(1 + len(key) + len(body))
	kb.WriteByte(byte(len(key)))
	kb.WriteString(key)
	kb.Write(body)
	e := &entry{kb: kb.String()}
	c.toFront(e)
	c.byKey[e.key()] = e
	c.bytes += int64(len(body))
	c.stats.Stores++
	for c.bytes > c.budget && c.lru.prev != &c.lru {
		tail := c.lru.prev
		tail.unlink()
		delete(c.byKey, tail.key())
		c.bytes -= int64(len(tail.body()))
		c.stats.Evictions++
	}
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.byKey)
	s.Bytes = c.bytes
	s.Budget = c.budget
	return s
}
