package packed

import (
	"sync"

	"repro/internal/vlsi"
)

// engineKey names one engine shape: two equal keys build identical
// engines (delay models are stateless, so their name identifies them).
type engineKey struct {
	k, wordBits int
	model       string
	scaled      bool
}

// engines is the process-wide engine cache. Engines are immutable and
// a few kilobytes, so unlike core.Machines they are shared, not
// checked out: every caller of the same shape gets the same object,
// concurrently.
var engines sync.Map // engineKey -> *Engine

// EngineFor returns the shared engine for the given shape, building
// it on first use.
func EngineFor(k int, cfg vlsi.Config, scaled bool) (*Engine, error) {
	key := engineKey{k: k, wordBits: cfg.WordBits, model: cfg.Model.Name(), scaled: scaled}
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
