// Durable scheduler state, mirroring internal/dfp's split: Save/Load
// persist the policy weights only (the model-file form campaign model
// stores keep), while AppendState/ReadState write and read everything
// REINFORCE training needs to resume bit-for-bit — weights, published
// snapshot buffers, Adam moments and step counter — as one section of a train
// checkpoint. An episode in progress lives in an Actor and nothing draws from
// a master rng after New, so there is neither an episode nor an rng cursor to
// save. ReadState checks the whole section before anything changes.
package rl

import (
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/wire"
)

// stateMagic versions the section. v1 also carried the rng cursor and the
// steps of an episode the scheduler was recording itself, v2 was a gob
// container; a file of either is refused.
const stateMagic = "mrsch-rl-state-v3"

// Save writes the policy-network weights to w (the evaluation model file).
func (s *Scheduler) Save(w io.Writer) error { return nn.SaveWeights(w, s.net.Params()) }

// Load restores weights written by Save into an identically-configured
// scheduler.
func (s *Scheduler) Load(r io.Reader) error { return nn.LoadWeights(r, s.net.Params()) }

// AppendState appends the scheduler's state section to b: the magic, the
// state width, window and seed it only loads back into, and the train state.
// The scheduler must be quiescent — no update or rollout in flight.
func (s *Scheduler) AppendState(b []byte) []byte {
	b = wire.AppendString(b, stateMagic)
	b = wire.AppendInt(b, s.enc.StateDim())
	b = wire.AppendInt(b, s.cfg.Window)
	b = wire.AppendInt64(b, s.cfg.Seed)
	return nn.AppendTrainState(b, s.net.Params(), s.opt)
}

// ReadState decodes a state section written by AppendState into a scheduler
// constructed with the same Config and system and checks all of it without
// changing anything. It returns the function that applies it.
func (s *Scheduler) ReadState(r *wire.Reader) (func(), error) {
	if err := r.Magic(stateMagic); err != nil {
		return nil, err
	}
	dim, window, seed := r.Int(), r.Int(), r.Int64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if dim != s.enc.StateDim() || window != s.cfg.Window {
		return nil, fmt.Errorf("architecture mismatch: state was saved for dim=%d window=%d, scheduler has dim=%d window=%d",
			dim, window, s.enc.StateDim(), s.cfg.Window)
	}
	if seed != s.cfg.Seed {
		return nil, fmt.Errorf("seed mismatch: state was saved at seed %d, scheduler runs seed %d", seed, s.cfg.Seed)
	}
	return nn.ReadTrainState(r, s.net.Params(), s.opt)
}
