package serve

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// engine owns the served model and answers batched decision requests
// between zero-downtime weight swaps.
//
// Concurrency design: one decider of one read-only model answers every
// batch, and one mutex orders its batches against the swaps that replace it
// (contract rule 3). Only the batcher goroutine decides. A swap loads and
// packs the new model on its own goroutine, outside the lock, and holds the
// lock only to store the new decider and bump the version, so a batch never
// waits for a load, and requests queued behind a swap are answered by the new
// version. No model's weights are ever written: a failed load builds nothing
// and the previous version keeps serving, untouched.
type engine struct {
	mu      sync.Mutex
	d       *core.BatchDecider
	version uint64
}

func newEngine(m *core.Model) *engine {
	return &engine{d: m.BatchDecider(), version: 1}
}

// decide answers one admission batch, writing picks into dst (grown as
// needed) and returning the model version that produced every one of them.
// The version is read under the same lock hold as the forward pass, so a
// batch is always attributable to exactly one version — old or new across a
// concurrent swap, never a blend.
func (e *engine) decide(ctxs []*sched.PickContext, dst []int) ([]int, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.d.Decide(ctxs, dst), e.version
}

// swap loads the model file r into a decider of the served build, outside
// the lock, then installs it and returns its version: the versions number
// the installs in the order they happen. On a load error nothing was built
// or installed: the previous version keeps serving and the version stays.
func (e *engine) swap(r io.Reader) (uint64, error) {
	e.mu.Lock()
	cur := e.d
	e.mu.Unlock()
	d, err := cur.Reload(r)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		return e.version, fmt.Errorf("serve: loading swap weights: %w", err)
	}
	e.d = d
	e.version++
	return e.version, nil
}

// modelVersion reports the currently served version.
func (e *engine) modelVersion() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}
