// Package concurrent is a node-level simulation of one orthogonal
// tree in which every internal processor (IP) and every base
// processor port is a goroutine and every tree edge is a pair of
// channels. It exists to cross-validate the deterministic router of
// internal/tree: for a contention-free operation both must compute
// exactly the same arrival times, and the concurrent engine also
// carries real values through the combining IPs, checking the
// functional semantics of COUNT/SUM/MIN ascents.
//
// The deterministic router is what the algorithm and benchmark layers
// use (it is reproducible and fast); this engine is the executable
// argument that the router's timing rules describe a real network of
// independently clocked processors.
//
// The engine also cross-validates the fault layer. A fault.TreeFaults
// view can be attached two ways:
//
//   - SetFaults (announced): nodes know which hardware is dead, cut
//     subtrees are excised from the goroutine graph, and the surviving
//     arrival times must match the router's degraded-mode timings
//     (tree.Unreached for cut leaves included).
//   - SetBlindFaults (unannounced): the goroutine graph is built as if
//     healthy, but words crossing dead hardware are silently dropped.
//     The downstream nodes then wait forever — the simulation wedges —
//     and the supervision layer (context cancellation or the watchdog)
//     converts the wedge into a *WedgedError instead of a hung test,
//     reclaiming every goroutine.
package concurrent

import (
	"context"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/tree"
	"repro/internal/vlsi"
)

// msg is one word moving along a tree edge.
type msg struct {
	// val is the word's value.
	val int64
	// head is the simulated time of the word's leading bit at the
	// receiving end of the edge.
	head vlsi.Time
}

// Combine is a bit-serial combining operation performed by the IPs
// during an ascent.
type Combine int

// The combining operations the paper's primitives need.
const (
	// Sum adds the two child words (LSB-first pipeline) —
	// SUM-LEAFTOROOT and COUNT-LEAFTOROOT.
	Sum Combine = iota
	// Min keeps the smaller child word (MSB-first pipeline) —
	// MIN-LEAFTOROOT.
	Min
)

func (c Combine) valid() bool { return c == Sum || c == Min }

// apply combines two child words. The engine's entry points validate
// the operation once, so the per-IP hot path needs no check.
func (c Combine) apply(a, b int64) int64 {
	if c == Sum {
		return a + b
	}
	if b < a {
		return b
	}
	return a
}

// Engine is a goroutine-per-node simulation of one tree. An Engine is
// not safe for concurrent use: attach fault views and the watchdog
// before running operations, and run operations one at a time (each
// operation internally runs thousands of goroutines; the sequential
// restriction is only on the public methods).
type Engine struct {
	geom *layout.TreeGeom
	cfg  vlsi.Config
	// first[v] is the first-bit latency of the edge between node v
	// and its parent, mirroring internal/tree.
	first []vlsi.Time
	// nodeLatency mirrors the router's per-IP re-timing latency.
	nodeLatency vlsi.Time
	// faults is the announced fault view (nodes route around it);
	// unreachable is its precomputed root-reachability, as in
	// tree.SetFaults.
	faults      *fault.TreeFaults
	unreachable []bool
	// blind is the unannounced fault view: sends crossing dead
	// hardware are dropped, wedging the downstream subtree.
	blind *fault.TreeFaults
	// watchdog bounds the wall-clock wait for an operation to drain;
	// 0 disables it.
	watchdog time.Duration

	// chans, rootCh and hasWord are the engine's per-operation
	// scratch, reused across operations (the Engine is documented
	// single-operation-at-a-time, so no locking). Channels are only
	// reused when empty — a wedged operation can leave undelivered
	// words behind, and those must not leak into the next operation.
	chans   []chan msg
	rootCh  chan msg
	hasWord []bool
}

// New builds an engine over a measured tree geometry.
func New(geom *layout.TreeGeom, cfg vlsi.Config) (*Engine, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		geom:        geom,
		cfg:         cfg,
		first:       make([]vlsi.Time, 2*geom.K),
		nodeLatency: 1,
	}
	for v := 2; v < 2*geom.K; v++ {
		e.first[v] = cfg.Model.FirstBit(geom.EdgeLen[v])
	}
	return e, nil
}

// SetWatchdog bounds every subsequent operation's wall-clock drain
// time; a simulation still running when the bound expires is treated
// as wedged. 0 disables the watchdog.
func (e *Engine) SetWatchdog(d time.Duration) { e.watchdog = d }

// SetFaults attaches an announced fault view: the nodes know which
// hardware is dead, so cut subtrees are excised from the goroutine
// graph and the live remainder must reproduce the deterministic
// router's degraded timings. Transient corruption is a property of
// the router's retry protocol, not of the node graph, and is ignored
// here. nil detaches.
func (e *Engine) SetFaults(f *fault.TreeFaults) {
	e.faults = f
	e.unreachable = nil
	if !f.Dead() {
		return
	}
	k := e.geom.K
	u := make([]bool, 2*k)
	u[1] = f.IPDead(1)
	for v := 2; v < 2*k; v++ {
		u[v] = u[v/2] || f.EdgeDead(v)
	}
	e.unreachable = u
}

// SetBlindFaults attaches an unannounced fault view: the goroutine
// graph is built as if the tree were healthy, but any word crossing a
// dead edge (or leaving a dead IP) is silently dropped. Receivers
// then block forever; run the operation under a context or watchdog
// to convert the wedge into a *WedgedError. nil detaches.
func (e *Engine) SetBlindFaults(f *fault.TreeFaults) { e.blind = f }

// cut reports whether node v is root-unreachable under the announced
// fault view.
func (e *Engine) cut(v int) bool { return e.unreachable != nil && e.unreachable[v] }

// dropped reports whether a word entering node v from its parent (or
// leaving v toward its parent) is lost under the blind fault view.
func (e *Engine) dropped(v int) bool {
	return e.blind.EdgeDead(v) || e.blind.IPDead(v/2) || e.blind.IPDead(v)
}

// edgeChans returns the per-edge channel array (indexed by the child
// node of each edge) for one operation, recycling channels from
// earlier operations. A cached channel is reused only when it is
// empty and holds at least bufCap words; anything else — including a
// channel a wedged operation left a stale word in — is replaced. All
// goroutines of the previous operation have exited by the time
// supervise returns, so nothing else can touch a cached channel.
// Buffering beyond the operation's message count is harmless: arrival
// times ride in the words themselves, and senders were already
// guaranteed never to block.
func (e *Engine) edgeChans(bufCap int) []chan msg {
	n := 2 * e.geom.K
	if len(e.chans) != n {
		e.chans = make([]chan msg, n)
	}
	ch := e.chans
	for v := 2; v < n; v++ {
		if c := ch[v]; c == nil || cap(c) < bufCap || len(c) != 0 {
			ch[v] = make(chan msg, bufCap)
		}
	}
	return ch
}

// rootChan returns the root result channel under the same recycling
// rule as edgeChans.
func (e *Engine) rootChan(bufCap int) chan msg {
	if c := e.rootCh; c == nil || cap(c) < bufCap || len(c) != 0 {
		e.rootCh = make(chan msg, bufCap)
	}
	return e.rootCh
}

// Broadcast runs a root-to-leaves flood with one goroutine per
// internal node. It returns the value received at each leaf and the
// time each leaf's last bit arrived (tree.Unreached for leaves cut
// off by announced faults).
func (e *Engine) Broadcast(ctx context.Context, val int64, rel vlsi.Time) (vals []int64, times []vlsi.Time, err error) {
	k := e.geom.K
	vals = make([]int64, k)
	times = make([]vlsi.Time, k)
	for j := range times {
		times[j] = tree.Unreached
	}
	if e.cut(1) {
		return vals, times, nil // announced root death: nothing moves
	}
	// Down-channels indexed by the child node of each edge.
	ch := e.edgeChans(1)
	var mu sync.Mutex
	err = e.supervise(ctx, "Broadcast", func(h *harness) {
		// One goroutine per live internal node: receive from parent,
		// re-time, forward to both live children.
		for v := 1; v < k; v++ {
			if e.cut(v) {
				continue
			}
			v := v
			h.spawn(func() {
				var in msg
				if v == 1 {
					in = msg{val: val, head: rel}
				} else {
					var ok bool
					if in, ok = h.recv(ch[v]); !ok {
						return
					}
				}
				hd := in.head
				if v != 1 {
					hd += e.nodeLatency
				}
				for _, c := range []int{2 * v, 2*v + 1} {
					if e.cut(c) || e.dropped(c) {
						continue
					}
					ch[c] <- msg{val: in.val, head: hd + e.first[c]}
				}
			})
		}
		for j := 0; j < k; j++ {
			if e.cut(k + j) {
				continue
			}
			j := j
			h.spawn(func() {
				in, ok := h.recv(ch[k+j])
				if !ok {
					return
				}
				mu.Lock()
				vals[j] = in.val
				times[j] = in.head + vlsi.Time(e.cfg.WordBits-1)
				mu.Unlock()
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, times, nil
}

// Reduce runs a combining ascent with one goroutine per internal
// node: each IP waits for its live children's words, combines them
// with one bit-time of latency, and forwards the result. It returns
// the combined value and the arrival time of its last bit at the
// root — tree.Unreached when no word reaches it (announced root
// death, or every leaf cut).
func (e *Engine) Reduce(ctx context.Context, vals []int64, rels []vlsi.Time, op Combine) (int64, vlsi.Time, error) {
	k := e.geom.K
	if len(vals) != k || len(rels) != k {
		return 0, 0, &ArityError{Op: "Reduce", Got: len(vals), Want: k}
	}
	if !op.valid() {
		return 0, 0, &CombineError{Op: op}
	}
	// hasWord mirrors tree.reduceOnce: a cut leaf contributes no
	// word; an IP produces one when either child does. Reused across
	// operations; every entry in [1, 2k) is rewritten below.
	if len(e.hasWord) != 2*k {
		e.hasWord = make([]bool, 2*k)
	}
	hasWord := e.hasWord
	for j := 0; j < k; j++ {
		hasWord[k+j] = !e.cut(k + j)
	}
	for v := k - 1; v >= 1; v-- {
		hasWord[v] = hasWord[2*v] || hasWord[2*v+1]
	}
	if !hasWord[1] || e.cut(1) {
		return 0, tree.Unreached, nil
	}
	ch := e.edgeChans(1)
	rootCh := e.rootChan(1)
	for j := 0; j < k; j++ {
		if hasWord[k+j] && !e.dropped(k+j) {
			ch[k+j] <- msg{val: vals[j], head: rels[j] + e.first[k+j]}
		}
	}
	err := e.supervise(ctx, "Reduce", func(h *harness) {
		for v := 1; v < k; v++ {
			if !hasWord[v] {
				continue
			}
			v := v
			h.spawn(func() {
				c1, c2 := 2*v, 2*v+1
				var out msg
				switch {
				case hasWord[c1] && hasWord[c2]:
					a, ok := h.recv(ch[c1])
					if !ok {
						return
					}
					b, ok := h.recv(ch[c2])
					if !ok {
						return
					}
					out = msg{val: op.apply(a.val, b.val), head: vlsi.MaxTime(a.head, b.head) + e.nodeLatency}
				case hasWord[c1]:
					a, ok := h.recv(ch[c1])
					if !ok {
						return
					}
					out = msg{val: a.val, head: a.head + e.nodeLatency}
				default:
					b, ok := h.recv(ch[c2])
					if !ok {
						return
					}
					out = msg{val: b.val, head: b.head + e.nodeLatency}
				}
				if v == 1 {
					if !e.blind.IPDead(1) {
						rootCh <- out
					}
					return
				}
				if e.dropped(v) {
					return
				}
				ch[v] <- msg{val: out.val, head: out.head + e.first[v]}
			})
		}
	})
	if err != nil {
		return 0, 0, err
	}
	select {
	case out := <-rootCh:
		return out.val, out.head + vlsi.Time(e.cfg.WordBits-1), nil
	default:
		// Blind root death: the ascent drained but the result never
		// surfaced.
		return 0, tree.Unreached, nil
	}
}

// PipelineBroadcast streams a sequence of words from the root to all
// leaves, one goroutine per tree node, with every node enforcing the
// pipelined-edge discipline: a word's head may enter the node's
// parent edge only when the edge has finished accepting the previous
// word's bits (free = start + wordBits). Words flow through FIFO
// channels, so the per-edge service order is the release order —
// exactly the deterministic router's schedule — and the per-word,
// per-leaf completion times must match tree.Tree.Pipeline bit for
// bit. This is the concurrent cross-validation of the contention
// rules that produce the paper's pipelining results (Sections III-A,
// V-B, VIII).
//
// Pipelined streams do not model announced faults (the router has no
// degraded pipeline either — core serializes over the live leaves
// instead); attaching one is a misuse. Blind faults drop words as
// usual and wedge the stream.
func (e *Engine) PipelineBroadcast(ctx context.Context, vals []int64, rels []vlsi.Time) (leafVals [][]int64, done []vlsi.Time, err error) {
	if len(vals) != len(rels) {
		return nil, nil, &ArityError{Op: "PipelineBroadcast", Got: len(vals), Want: len(rels)}
	}
	if e.faults.Dead() {
		return nil, nil, &FaultModeError{Op: "PipelineBroadcast"}
	}
	k := e.geom.K
	m := len(vals)
	ch := e.edgeChans(m)
	leafVals = make([][]int64, m)
	leafTimes := make([][]vlsi.Time, m)
	for i := range leafVals {
		leafVals[i] = make([]int64, k)
		leafTimes[i] = make([]vlsi.Time, k)
	}
	var mu sync.Mutex
	err = e.supervise(ctx, "PipelineBroadcast", func(h *harness) {
		for v := 1; v < k; v++ {
			v := v
			h.spawn(func() {
				// free[c] is the earliest time child c's edge accepts a
				// new head.
				free := map[int]vlsi.Time{2 * v: 0, 2*v + 1: 0}
				for i := 0; i < m; i++ {
					var in msg
					if v == 1 {
						in = msg{val: vals[i], head: rels[i]}
					} else {
						var ok bool
						if in, ok = h.recv(ch[v]); !ok {
							return
						}
					}
					hd := in.head
					if v != 1 {
						hd += e.nodeLatency
					}
					for _, c := range []int{2 * v, 2*v + 1} {
						start := vlsi.MaxTime(hd, free[c])
						free[c] = start + vlsi.Time(e.cfg.WordBits)
						if e.dropped(c) {
							continue
						}
						ch[c] <- msg{val: in.val, head: start + e.first[c]}
					}
				}
			})
		}
		for j := 0; j < k; j++ {
			j := j
			h.spawn(func() {
				for i := 0; i < m; i++ {
					in, ok := h.recv(ch[k+j])
					if !ok {
						return
					}
					mu.Lock()
					leafVals[i][j] = in.val
					leafTimes[i][j] = in.head + vlsi.Time(e.cfg.WordBits-1)
					mu.Unlock()
				}
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	done = make([]vlsi.Time, m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			if leafTimes[i][j] > done[i] {
				done[i] = leafTimes[i][j]
			}
		}
	}
	return leafVals, done, nil
}

// PipelineReduce streams a sequence of combining ascents through the
// tree, one goroutine per internal node, mirroring the router's
// pipelined-edge rule in the upward direction: each node combines the
// i-th words of its two children and may inject the result into its
// parent edge only when that edge has drained the (i−1)-th word. The
// per-word root arrival times must match issuing
// tree.Tree.ReduceUniform sequentially with the same releases — the
// schedule every OTC operation and the §III-A column-sum pipeline
// rely on. Fault handling is as in PipelineBroadcast.
func (e *Engine) PipelineReduce(ctx context.Context, vals [][]int64, rels []vlsi.Time, op Combine) (results []int64, done []vlsi.Time, err error) {
	if len(vals) != len(rels) {
		return nil, nil, &ArityError{Op: "PipelineReduce", Got: len(vals), Want: len(rels)}
	}
	if !op.valid() {
		return nil, nil, &CombineError{Op: op}
	}
	if e.faults.Dead() {
		return nil, nil, &FaultModeError{Op: "PipelineReduce"}
	}
	k := e.geom.K
	m := len(vals)
	for i := range vals {
		if len(vals[i]) != k {
			return nil, nil, &ArityError{Op: "PipelineReduce", Got: len(vals[i]), Want: k}
		}
	}
	ch := e.edgeChans(m)
	rootCh := e.rootChan(m)
	err = e.supervise(ctx, "PipelineReduce", func(h *harness) {
		// Leaves: inject their words in release order, respecting their
		// own parent-edge drain times.
		for j := 0; j < k; j++ {
			j := j
			h.spawn(func() {
				var free vlsi.Time
				for i := 0; i < m; i++ {
					start := vlsi.MaxTime(rels[i], free)
					free = start + vlsi.Time(e.cfg.WordBits)
					if e.dropped(k + j) {
						continue
					}
					ch[k+j] <- msg{val: vals[i][j], head: start + e.first[k+j]}
				}
			})
		}
		for v := 1; v < k; v++ {
			v := v
			h.spawn(func() {
				var free vlsi.Time
				for i := 0; i < m; i++ {
					a, ok := h.recv(ch[2*v])
					if !ok {
						return
					}
					b, ok := h.recv(ch[2*v+1])
					if !ok {
						return
					}
					ready := vlsi.MaxTime(a.head, b.head) + e.nodeLatency
					out := msg{val: op.apply(a.val, b.val), head: ready}
					if v == 1 {
						if !e.blind.IPDead(1) {
							rootCh <- out
						}
						continue
					}
					start := vlsi.MaxTime(ready, free)
					free = start + vlsi.Time(e.cfg.WordBits)
					if e.dropped(v) {
						continue
					}
					ch[v] <- msg{val: out.val, head: start + e.first[v]}
				}
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	results = make([]int64, m)
	done = make([]vlsi.Time, m)
	for i := 0; i < m; i++ {
		out := <-rootCh
		results[i] = out.val
		done[i] = out.head + vlsi.Time(e.cfg.WordBits-1)
	}
	return results, done, nil
}
