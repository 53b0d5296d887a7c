package dfp

import (
	"math"
	"math/rand"
)

// Experience is one training sample: the inputs observed at a decision, the
// action taken, and the realized future-measurement changes (Target) with a
// validity mask for offsets that ran past the end of the episode. The state
// is kept as its runs (see runs); the other vectors are short and stay
// dense.
type Experience struct {
	State  runs
	Meas   []float64
	Goal   []float64 // extended goal (PredDim)
	Action int
	Target []float64
	Mask   []bool
}

// replay is the experience buffer: one fixed-capacity ring with oldest-first
// eviction and uniform sampling. It has one writer (Agent.ingest) and one
// reader (TrainSteps' caller), never at the same time.
//
// The ring holds each state in run-length form: MRSch's state is two
// elements per resource unit, and consecutive units held by one allocation,
// or free, are the same pair, so the states of a trained quick-geometry S4
// agent keep 107 of their 394 words on average (27 %). The minibatch gather
// (trainWorker.run) and the checkpoint writer (AppendState) expand a state
// back to the stored float64 words, so no value, minibatch row or weight
// depends on the form, and the on-disk layout (state.go,
// mrsch-dfp-state-v4) stays dense.
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

// reset empties the ring in place: its slots keep their capacity and drop
// their experiences, so eviction and sampling start over from an empty ring.
func (r *replay) reset() {
	clear(r.buf)
	r.next, r.full = 0, false
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

// runs is a float64 vector in lossless run-length form over element pairs:
// a sequence of segments, each a header word and its payload. A header's
// bits h count its segment: an odd h is a run of h>>1 copies of the pair in
// the next two words, an even h a literal stretch of h>>1 elements in the
// next h>>1 words (an odd count only in the last segment, for a vector of odd
// length). Elements are compared as their bits and only ever moved, never
// computed on, so ±0, NaN payloads and subnormals come back as they went in;
// and the form reads nothing of the encoder's layout, so the CNN and
// per-resource state modules get the rows they always got.
type runs []float64

// appendRuns appends x in run-length form to dst. Two or more equal pairs
// make a run (three words); the elements between runs make one literal
// stretch, so the form is never longer than x by more than one header word.
func appendRuns(dst runs, x []float64) runs {
	lit := 0 // x[lit:i] is the literal stretch not yet written
	i := 0
	for i+1 < len(x) {
		a, b := math.Float64bits(x[i]), math.Float64bits(x[i+1])
		j := i + 2
		for j+1 < len(x) && math.Float64bits(x[j]) == a && math.Float64bits(x[j+1]) == b {
			j += 2
		}
		if j-i >= 4 {
			dst = appendLiteral(dst, x[lit:i])
			dst = append(dst, math.Float64frombits(uint64((j-i)/2)<<1|1), x[i], x[i+1])
			lit = j
		}
		i = j
	}
	return appendLiteral(dst, x[lit:])
}

// appendLiteral appends x as one literal stretch, nothing when x is empty.
func appendLiteral(dst runs, x []float64) runs {
	if len(x) == 0 {
		return dst
	}
	return append(append(dst, math.Float64frombits(uint64(len(x))<<1)), x...)
}

// appendTo appends the vector r holds to dst: its exact float64 words.
func (r runs) appendTo(dst []float64) []float64 {
	for i := 0; i < len(r); {
		h := math.Float64bits(r[i])
		k := int(h >> 1)
		if h&1 == 0 {
			dst = append(dst, r[i+1:i+1+k]...)
			i += 1 + k
			continue
		}
		a, b := r[i+1], r[i+2]
		for ; k > 0; k-- {
			dst = append(dst, a, b)
		}
		i += 3
	}
	return dst
}
