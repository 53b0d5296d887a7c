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
// Concurrency design: one decider reads the master's live weights, and one
// mutex orders its batches against swaps. Only the batcher goroutine
// decides, so the lock is contended only by a swap, which waits for at most
// one forward pass (microseconds), never for connections; requests queued
// behind a swap are answered by the new version. A swap loads in place, which
// is safe because the load checks the whole file before it writes any weight
// (nn.LoadWeights): a failed swap leaves the served weights untouched.
type engine struct {
	mu      sync.Mutex
	master  *core.MRSch
	d       *core.BatchDecider
	version uint64
}

func newEngine(m *core.MRSch) *engine {
	return &engine{master: m, d: m.BatchDecider(), version: 1}
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

// swap loads new weights into the master agent, which the decider reads,
// and returns the new model version. On a load error nothing was written:
// the previous version keeps serving untouched and the version stays.
func (e *engine) swap(r io.Reader) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.master.Load(r); err != nil {
		return e.version, fmt.Errorf("serve: loading swap weights: %w", err)
	}
	e.version++
	return e.version, nil
}

// modelVersion reports the currently served version.
func (e *engine) modelVersion() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}
