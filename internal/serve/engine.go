package serve

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// engine owns the served model and answers batched decision requests
// concurrently with zero-downtime weight swaps.
//
// Concurrency design: decisions read the agent's published copy-on-write
// weight snapshot through pooled core.BatchDecider clones (each clone
// aliases the shared snapshot buffers but owns private scratch, so any
// number may decide at once). Publication refreshes those shared buffers in
// place, so it must not run concurrently with a reader — the RWMutex
// provides exactly that: decide holds the read lock, swap the write lock.
// Swaps therefore wait only for in-flight forward passes (microseconds),
// never for connections; requests queued behind a swap are answered by the
// new version.
type engine struct {
	mu      sync.RWMutex
	master  *core.MRSch
	version uint64

	pool sync.Pool // of *core.BatchDecider
}

func newEngine(m *core.MRSch) *engine {
	e := &engine{master: m, version: 1}
	e.pool.New = func() any { return m.BatchDecider() }
	// The first decider materializes the weight snapshot, before any reader.
	e.pool.Put(m.BatchDecider())
	return e
}

// decide answers one admission batch, writing picks into dst (grown as
// needed) and returning the model version that produced every one of them.
// The version is read under the same lock hold as the forward pass, so a
// batch is always attributable to exactly one version — old or new across a
// concurrent swap, never a blend.
func (e *engine) decide(ctxs []*sched.PickContext, dst []int) ([]int, uint64) {
	d := e.pool.Get().(*core.BatchDecider)
	e.mu.RLock()
	dst = d.Decide(ctxs, dst)
	v := e.version
	e.mu.RUnlock()
	e.pool.Put(d)
	return dst, v
}

// swap loads new weights into the master agent and publishes them to every
// pooled decider, returning the new model version. On a load error nothing
// is published: readers keep answering from the previous version untouched
// (the load may have partially written the master's live values, but those
// are invisible until the next successful publish).
func (e *engine) swap(r io.Reader) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.master.Load(r); err != nil {
		return e.version, fmt.Errorf("serve: loading swap weights: %w", err)
	}
	e.master.PublishWeights()
	e.version++
	return e.version, nil
}

// modelVersion reports the currently served version.
func (e *engine) modelVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}
