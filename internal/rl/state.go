// Durable scheduler state, mirroring internal/dfp's split: Save/Load
// persist the policy weights only (the model-file form campaign model
// stores keep), while SaveState/LoadState persist everything REINFORCE
// training needs to resume bit-for-bit — weights, published snapshot
// buffers, Adam moments and step counter. An episode in progress lives in an
// Actor and nothing draws from a master rng after New, so there is neither
// an episode nor an rng cursor to save. LoadState validates the whole
// container before mutating anything.
package rl

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/nn"
)

// stateMagic versions the container. v1 also carried the rng cursor and the
// steps of an episode the scheduler was recording itself; a v1 file is
// refused by its version name.
const stateMagic = "mrsch-rl-state-v2"

func init() {
	// Fixed-order gob type-ID claim, keeping encoded bytes history-free
	// (see nn.GobWarmup).
	nn.RegisterGobContainer(func(enc *gob.Encoder) { enc.Encode(&schedulerState{}) })
}

// schedulerState is the gob container written by SaveState.
type schedulerState struct {
	Magic string

	StateDim int
	Window   int
	Seed     int64

	Train nn.TrainState
}

// Save writes the policy-network weights to w (the evaluation model file).
func (s *Scheduler) Save(w io.Writer) error { return nn.SaveWeights(w, s.net.Params()) }

// Load restores weights written by Save into an identically-configured
// scheduler.
func (s *Scheduler) Load(r io.Reader) error { return nn.LoadWeights(r, s.net.Params()) }

// SaveState writes the scheduler's full training state to w. The scheduler
// must be quiescent — no update or rollout in flight.
func (s *Scheduler) SaveState(w io.Writer) error {
	st := schedulerState{
		Magic:    stateMagic,
		StateDim: s.enc.StateDim(),
		Window:   s.cfg.Window,
		Seed:     s.cfg.Seed,
		Train:    nn.CaptureTrainState(s.net.Params(), s.opt),
	}
	if err := nn.EncodeChecksummed(w, &st); err != nil {
		return fmt.Errorf("rl: save state: %w", err)
	}
	return nil
}

// LoadState restores state previously written by SaveState into a
// scheduler constructed with the same Config and system. Corrupt,
// truncated, or mismatched input fails with a descriptive error and
// applies nothing.
func (s *Scheduler) LoadState(r io.Reader) error {
	var st schedulerState
	if err := nn.DecodeChecksummed(r, &st); err != nil {
		return fmt.Errorf("rl: load state: %w", err)
	}
	if st.Magic != stateMagic {
		return fmt.Errorf("rl: load state: bad magic %q (want %q; corrupt file or incompatible format version)", st.Magic, stateMagic)
	}
	if st.StateDim != s.enc.StateDim() || st.Window != s.cfg.Window {
		return fmt.Errorf("rl: load state: architecture mismatch: state was saved for dim=%d window=%d, scheduler has dim=%d window=%d",
			st.StateDim, st.Window, s.enc.StateDim(), s.cfg.Window)
	}
	if st.Seed != s.cfg.Seed {
		return fmt.Errorf("rl: load state: seed mismatch: state was saved at seed %d, scheduler runs seed %d", st.Seed, s.cfg.Seed)
	}
	// The train state is the one section left to apply, and Apply checks it
	// whole before it copies anything.
	if err := st.Train.Apply(s.net.Params(), s.opt); err != nil {
		return fmt.Errorf("rl: load state: %w", err)
	}
	return nil
}
