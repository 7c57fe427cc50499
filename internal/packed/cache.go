package packed

import (
	"sync"

	"repro/internal/mcache"
	"repro/internal/vlsi"
)

// engines is the process-wide engine cache, keyed by the mcache
// packed-shape keys. Engines are immutable and a few kilobytes, so
// unlike core.Machines they are shared, not checked out: every
// caller of the same shape gets the same object, concurrently.
var engines sync.Map // mcache.Key -> *Engine

// EngineFor returns the shared engine for the given shape, building
// it on first use.
func EngineFor(k int, cfg vlsi.Config, scaled bool) (*Engine, error) {
	key := mcache.PackedOTNKey(k, cfg)
	if scaled {
		key = mcache.PackedScaledOTNKey(k, cfg)
	}
	if e, ok := engines.Load(key); ok {
		return e.(*Engine), nil
	}
	e, err := build(k, cfg, scaled)
	if err != nil {
		return nil, err
	}
	if prev, loaded := engines.LoadOrStore(key, e); loaded {
		return prev.(*Engine), nil
	}
	return e, nil
}
