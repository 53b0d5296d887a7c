package dfp

import "math/rand"

// Experience is one training sample: the inputs observed at a decision, the
// action taken, and the realized future-measurement changes (Target) with a
// validity mask for offsets that ran past the end of the episode.
type Experience struct {
	State  []float64
	Meas   []float64
	Goal   []float64 // extended goal (PredDim)
	Action int
	Target []float64
	Mask   []bool
}

// replay is the experience buffer: one fixed-capacity ring with oldest-first
// eviction and uniform sampling. It has one writer (Agent.ingest) and one
// reader (TrainSteps' caller), never at the same time.
type replay struct {
	buf  []*Experience
	next int
	full bool
}

// newReplay builds a ring of the given capacity (clamped to at least 1).
func newReplay(capacity int) *replay {
	return &replay{buf: make([]*Experience, max(capacity, 1))}
}

func (r *replay) add(e *Experience) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *replay) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// sample draws one stored experience uniformly with exactly one rng.Intn —
// the draw sequence every trained-weights golden is pinned to. It panics on
// an empty buffer (Intn(0)); callers gate on len() as TrainSteps does.
func (r *replay) sample(rng *rand.Rand) *Experience {
	return r.buf[rng.Intn(r.len())]
}
