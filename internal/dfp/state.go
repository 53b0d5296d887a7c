// Durable agent state. Model.Save (model.go) persists weights only — the model-file
// format consumed by evaluation. AppendState writes everything training needs
// to resume bit-for-bit as one section: weights, published snapshot buffers,
// Adam moments and step counter (an nn train state), the rng cursor, the
// epsilon schedule position, and the replay ring with its wraparound cursor.
// ReadState checks the whole section against the receiving agent's
// architecture and changes nothing; the function it returns applies it. A
// train checkpoint (internal/experiments) is where the section is sealed.
package dfp

import (
	"fmt"
	"slices"

	"repro/internal/nn"
	"repro/internal/wire"
)

// stateMagic versions the section. v1 held the replay as a list of shards
// with two round-robin cursors, v2 the steps of an episode the agent was
// recording itself, v3 was a gob container; a file of any of them is refused
// (wire.Unseal names the retired gob format).
const stateMagic = "mrsch-dfp-state-v4"

// AppendState appends the agent's state section to b: the magic, the
// architecture and seed it only loads back into, the train state, the rng
// cursor, epsilon and the train-step counter, then the replay ring's geometry
// and its stored experiences in buffer-index order (the filled prefix when it
// has not wrapped, the whole buffer when it has), each vector as long as the
// architecture says. The agent must be quiescent — no TrainStep or rollout in
// flight — which is exactly the state internal/rollout's round-boundary
// checkpoint hook guarantees.
func (a *Agent) AppendState(b []byte) []byte {
	b = wire.AppendString(b, stateMagic)
	for _, d := range a.dims() {
		b = wire.AppendInt(b, d)
	}
	b = wire.AppendInt64(b, a.cfg.Seed)
	b = nn.AppendTrainState(b, a.params, a.opt)
	b = wire.AppendUvarint(b, a.rngSrc.Cursor())
	b = wire.AppendFloat(b, a.eps)
	b = wire.AppendInt(b, a.trainSteps)
	b = wire.AppendInt(b, len(a.replay.buf))
	b = wire.AppendInt(b, a.replay.next)
	b = wire.AppendBool(b, a.replay.full)
	stored := a.replay.buf[:a.replay.len()]
	b = wire.AppendUvarint(b, uint64(len(stored)))
	var state []float64 // each stored state expanded: the layout is dense
	for _, e := range stored {
		state = e.State.appendTo(state[:0])
		b = wire.AppendFloats(b, state)
		b = wire.AppendFloats(b, e.Meas)
		b = wire.AppendFloats(b, e.Goal)
		b = wire.AppendInt(b, e.Action)
		b = wire.AppendFloats(b, e.Target)
		for _, m := range e.Mask {
			b = wire.AppendBool(b, m)
		}
	}
	return b
}

// dims is the architecture a state section records: state, measurement,
// action and prediction widths.
func (a *Agent) dims() [4]int {
	return [4]int{a.cfg.StateDim, a.cfg.Measurements, a.cfg.Actions, a.cfg.PredDim()}
}

// ReadState decodes a state section written by AppendState and checks all of
// it against this agent — architecture, seed, replay capacity, every counter
// and every stored experience — without changing anything. It returns the
// function that applies it.
func (a *Agent) ReadState(r *wire.Reader) (func(), error) {
	if err := r.Magic(stateMagic); err != nil {
		return nil, err
	}
	var dims [4]int
	for i := range dims {
		dims[i] = r.Int()
	}
	seed := r.Int64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if want := a.dims(); dims != want {
		return nil, fmt.Errorf("architecture mismatch: state was saved for dims (state, meas, actions, pred) %v, agent has %v", dims, want)
	}
	if seed != a.cfg.Seed {
		return nil, fmt.Errorf("seed mismatch: state was saved at seed %d, agent runs seed %d (the rng cursor is only meaningful for the saved seed)", seed, a.cfg.Seed)
	}
	applyTrain, err := nn.ReadTrainState(r, a.params, a.opt)
	if err != nil {
		return nil, err
	}
	cursor, eps, steps := r.Uvarint(), r.Float(), r.Int()
	capacity, next, full := r.Int(), r.Int(), r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if cursor > nn.MaxRngCursor {
		return nil, fmt.Errorf("rng cursor %d exceeds the plausible maximum %d (corrupt or hand-crafted state; replaying it would hang the loader)", cursor, uint64(nn.MaxRngCursor))
	}
	if !(eps >= 0 && eps <= 1) {
		return nil, fmt.Errorf("epsilon %g outside [0,1]", eps)
	}
	if steps < 0 {
		return nil, fmt.Errorf("negative train-step counter %d", steps)
	}
	if capacity != len(a.replay.buf) {
		return nil, fmt.Errorf("replay capacity mismatch: state has %d, agent has %d (ReplayCap must match the saving configuration)", capacity, len(a.replay.buf))
	}
	if next < 0 || next >= capacity {
		return nil, fmt.Errorf("replay wraparound cursor %d out of range [0,%d)", next, capacity)
	}
	want := next
	if full {
		want = capacity
	}
	sd, md, pd := a.cfg.StateDim, a.cfg.Measurements, a.cfg.PredDim()
	n := r.Count(8*(sd+md+2*pd) + 1 + pd)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("replay has %d stored experiences, geometry implies %d (next=%d full=%v)", n, want, next, full)
	}
	replay := make([]*Experience, n)
	state, packed := make([]float64, sd), runs(nil)
	for i := range replay {
		for k := range state {
			state[k] = r.Float()
		}
		packed = appendRuns(packed[:0], state)
		// Each its own allocation: eviction frees it alone.
		e := &Experience{State: slices.Clone(packed), Meas: r.Floats(md), Goal: r.Floats(pd), Action: r.Int(), Target: r.Floats(pd), Mask: make([]bool, pd)}
		for k := range e.Mask {
			e.Mask[k] = r.Bool()
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if e.Action < 0 || e.Action >= a.cfg.Actions {
			return nil, fmt.Errorf("replay experience %d: action %d out of range for %d actions", i, e.Action, a.cfg.Actions)
		}
		replay[i] = e
	}
	return func() {
		applyTrain()
		a.rngSrc.SeekTo(cursor)
		a.eps = eps
		a.trainSteps = steps
		a.replay.next = next
		a.replay.full = full
		clear(a.replay.buf)
		copy(a.replay.buf, replay)
	}, nil
}
