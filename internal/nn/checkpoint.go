// Durable training state. SaveWeights/LoadWeights (serialize.go) persist a
// model's weights only — enough to evaluate, not enough to resume training:
// Adam carries per-parameter moment vectors and a step counter, pipelined
// rollout-training additionally reads a published snapshot buffer per Param,
// and exploration draws from an rng whose position matters.
// AppendTrainState/ReadTrainState write and read the first two as a train
// state, the nn part of an agent's state section (dfp, rl), and CursorSource
// makes the rng position itself serializable.
//
// Every durable file is one layout: sections of internal/wire's canonical
// fields behind a magic-and-version string, sealed by one SHA-256
// (wire.Seal). The contract shared by every loader: decode and check the
// WHOLE file first, mutate nothing until every check passes (wire.Unseal
// applies only then). A corrupt, truncated, or version-mismatched input fails
// with a descriptive error and leaves the receiver exactly as it was.
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// AppendTrainState appends the training state of params under opt: the
// parameter count, then per parameter its record — name and values, then the
// published snapshot if it has one and Adam's moment pair if the optimizer
// has stepped it, each behind a presence byte and as long as the values — and
// last Adam's step counter.
func AppendTrainState(b []byte, params []*Param, opt *Adam) []byte {
	b = wire.AppendUvarint(b, uint64(len(params)))
	for _, p := range params {
		b = appendValues(b, p)
		b = wire.AppendFloats(wire.AppendBool(b, p.snap != nil), p.snap)
		m := opt.m[p]
		b = wire.AppendBool(b, m != nil)
		if m != nil {
			b = wire.AppendFloats(wire.AppendFloats(b, m), opt.v[p])
		}
	}
	return wire.AppendInt(b, opt.t)
}

// ReadTrainState decodes a train state and checks it against params. It
// changes nothing and returns the function that applies it: weight values and
// published snapshots are copied in place (existing SharedClone/SnapshotClone
// aliases keep following them), and the optimizer's step counter and moment
// vectors are replaced.
func ReadTrainState(r *wire.Reader, params []*Param, opt *Adam) (func(), error) {
	if err := readCount(r, params); err != nil {
		return nil, err
	}
	type record struct{ values, snap, m, v Vec }
	recs := make([]record, len(params))
	for i, p := range params {
		rec := &recs[i]
		var err error
		if rec.values, err = readValues(r, i, p); err != nil {
			return nil, err
		}
		if r.Bool() {
			rec.snap = r.Floats(len(p.Value))
		}
		if r.Bool() {
			rec.m, rec.v = r.Floats(len(p.Value)), r.Floats(len(p.Value))
		}
	}
	t := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, fmt.Errorf("negative Adam step counter %d", t)
	}
	return func() {
		for i, p := range params {
			rec := recs[i]
			copy(p.Value, rec.values)
			if rec.snap != nil {
				if p.snap == nil {
					p.snap = rec.snap
				}
				copy(p.snap, rec.snap)
			}
			if rec.m == nil {
				delete(opt.m, p)
				delete(opt.v, p)
			} else {
				opt.m[p], opt.v[p] = rec.m, rec.v
			}
		}
		opt.t = t
	}, nil
}

// MaxRngCursor bounds the rng draw cursors agent checkpoints will replay
// on load: SeekTo costs one Int63 per draw, so an implausibly large
// cursor in a (checksummed but hand-crafted or writer-bugged) state file
// would hang the loader for hours instead of failing. 2^34 draws replay
// in under a minute and exceed any realistic training run by orders of
// magnitude; loaders reject cursors beyond it with a descriptive error.
const MaxRngCursor = uint64(1) << 34

// CursorSource is a rand.Source with a checkpointable position: it wraps
// the standard library source and counts Int63 draws, so an rng stream can
// be resumed exactly by replaying the same number of draws from the same
// seed (SeekTo). It deliberately implements only rand.Source — not
// Source64 — which routes every rand.Rand method through Int63 and keeps
// the cursor complete; the Int63-derived streams (Float64, Intn,
// NormFloat64, ...) are bit-identical to rand.NewSource's, so swapping a
// CursorSource under an existing rand.New call changes nothing.
//
// A CursorSource is not safe for concurrent use, matching rand.NewSource.
type CursorSource struct {
	seed int64
	n    uint64
	src  rand.Source
}

// NewCursorSource returns a source seeded like rand.NewSource(seed) with
// the cursor at zero.
func NewCursorSource(seed int64) *CursorSource {
	return &CursorSource{seed: seed, src: rand.NewSource(seed)}
}

// Int63 implements rand.Source, advancing the cursor.
func (s *CursorSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Seed implements rand.Source, resetting the cursor.
func (s *CursorSource) Seed(seed int64) {
	s.seed = seed
	s.src.Seed(seed)
	s.n = 0
}

// Cursor reports the number of Int63 draws consumed since the last seeding.
func (s *CursorSource) Cursor() uint64 { return s.n }

// SeekTo repositions the stream at exactly cursor draws past the seed by
// reseeding and discarding: after SeekTo(c), the source produces the same
// values a fresh source would after c draws. Replay costs one Int63 per
// discarded draw (a few ns each), the price of keeping the underlying
// generator's unexported state out of the checkpoint format.
func (s *CursorSource) SeekTo(cursor uint64) {
	s.src.Seed(s.seed)
	for i := uint64(0); i < cursor; i++ {
		s.src.Int63()
	}
	s.n = cursor
}
