// Durable agent state. Save (dfp.go) persists weights only — the model-file
// format consumed by evaluation. SaveState persists everything training
// needs to resume bit-for-bit: weights, published snapshot buffers, Adam
// moments and step counter (nn.TrainState), the replay ring with its
// wraparound cursor, the epsilon schedule position and the rng cursor.
// LoadState validates the whole container against
// the receiving agent's architecture before mutating anything: corrupt,
// truncated, or mismatched input fails with a descriptive error and leaves
// the agent untouched.
package dfp

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/nn"
)

// stateMagic versions the container. Bump it when the format changes
// incompatibly; LoadState reports a mismatch instead of misreading. v1 held
// the replay as a list of shards with two round-robin cursors, v2 the steps
// of an episode the agent was recording itself; a file of either is refused
// by its version name.
const stateMagic = "mrsch-dfp-state-v3"

func init() {
	// Fixed-order gob type-ID claim, keeping encoded bytes history-free
	// (see nn.GobWarmup).
	nn.RegisterGobContainer(func(enc *gob.Encoder) { enc.Encode(&agentState{}) })
}

// agentState is the gob container written by SaveState.
type agentState struct {
	Magic string

	// Architecture guards: a checkpoint only loads into an agent whose
	// dimensions, seed, and replay capacity match the one that wrote it.
	StateDim     int
	Measurements int
	Actions      int
	PredDim      int
	Seed         int64

	Train nn.TrainState

	RngCursor  uint64
	Eps        float64
	TrainSteps int

	// The replay ring: its geometry and the stored experiences in
	// buffer-index order (the filled prefix when the ring has not wrapped,
	// the whole buffer when it has).
	ReplayCap  int
	ReplayNext int
	ReplayFull bool
	Replay     []Experience
}

// SaveState writes the agent's full training state to w. The agent must be
// quiescent — no TrainStep or rollout in flight — which is exactly the
// state internal/rollout's round-boundary checkpoint hook guarantees.
func (a *Agent) SaveState(w io.Writer) error {
	st := agentState{
		Magic:        stateMagic,
		StateDim:     a.cfg.StateDim,
		Measurements: a.cfg.Measurements,
		Actions:      a.cfg.Actions,
		PredDim:      a.cfg.PredDim(),
		Seed:         a.cfg.Seed,
		Train:        nn.CaptureTrainState(a.params, a.opt),
		RngCursor:    a.rngSrc.Cursor(),
		Eps:          a.eps,
		TrainSteps:   a.trainSteps,
		ReplayCap:    len(a.replay.buf),
		ReplayNext:   a.replay.next,
		ReplayFull:   a.replay.full,
	}
	for _, e := range a.replay.buf[:a.replay.len()] {
		st.Replay = append(st.Replay, *e)
	}
	if err := nn.EncodeChecksummed(w, &st); err != nil {
		return fmt.Errorf("dfp: save state: %w", err)
	}
	return nil
}

// LoadState restores state previously written by SaveState into an agent
// constructed with the same Config. The container is decoded and validated
// in full first; any error — decode failure, version mismatch, or a
// mismatch with this agent's architecture, seed, or replay capacity — is
// returned with nothing applied.
func (a *Agent) LoadState(r io.Reader) error {
	var st agentState
	if err := nn.DecodeChecksummed(r, &st); err != nil {
		return fmt.Errorf("dfp: load state: %w", err)
	}
	if err := a.checkState(&st); err != nil {
		return fmt.Errorf("dfp: load state: %w", err)
	}

	// Validation passed: apply every section. Apply cannot fail after Check.
	if err := st.Train.Apply(a.params, a.opt); err != nil {
		return fmt.Errorf("dfp: load state: %w", err) // unreachable: checked above
	}
	a.rngSrc.SeekTo(st.RngCursor)
	a.eps = st.Eps
	a.trainSteps = st.TrainSteps
	a.replay.next = st.ReplayNext
	a.replay.full = st.ReplayFull
	clear(a.replay.buf)
	for i := range st.Replay {
		e := st.Replay[i] // its own allocation: eviction frees it alone
		a.replay.buf[i] = &e
	}
	return nil
}

// checkState validates the decoded container against the agent without
// mutating anything.
func (a *Agent) checkState(st *agentState) error {
	if st.Magic != stateMagic {
		return fmt.Errorf("bad magic %q (want %q; corrupt file or incompatible format version)", st.Magic, stateMagic)
	}
	pd := a.cfg.PredDim()
	if st.StateDim != a.cfg.StateDim || st.Measurements != a.cfg.Measurements ||
		st.Actions != a.cfg.Actions || st.PredDim != pd {
		return fmt.Errorf("architecture mismatch: state was saved for dims state=%d meas=%d actions=%d pred=%d, agent has state=%d meas=%d actions=%d pred=%d",
			st.StateDim, st.Measurements, st.Actions, st.PredDim,
			a.cfg.StateDim, a.cfg.Measurements, a.cfg.Actions, pd)
	}
	if st.Seed != a.cfg.Seed {
		return fmt.Errorf("seed mismatch: state was saved at seed %d, agent runs seed %d (the rng cursor is only meaningful for the saved seed)", st.Seed, a.cfg.Seed)
	}
	if st.RngCursor > nn.MaxRngCursor {
		return fmt.Errorf("rng cursor %d exceeds the plausible maximum %d (corrupt or hand-crafted state; replaying it would hang the loader)", st.RngCursor, uint64(nn.MaxRngCursor))
	}
	if err := st.Train.Check(a.params); err != nil {
		return err
	}
	if st.Eps < 0 || st.Eps > 1 {
		return fmt.Errorf("epsilon %g outside [0,1]", st.Eps)
	}
	if st.TrainSteps < 0 {
		return fmt.Errorf("negative train-step counter %d", st.TrainSteps)
	}
	cap := len(a.replay.buf)
	if st.ReplayCap != cap {
		return fmt.Errorf("replay capacity mismatch: state has %d, agent has %d (ReplayCap must match the saving configuration)", st.ReplayCap, cap)
	}
	if st.ReplayNext < 0 || st.ReplayNext >= cap {
		return fmt.Errorf("replay wraparound cursor %d out of range [0,%d)", st.ReplayNext, cap)
	}
	want := st.ReplayNext
	if st.ReplayFull {
		want = cap
	}
	if len(st.Replay) != want {
		return fmt.Errorf("replay has %d stored experiences, geometry implies %d (next=%d full=%v)",
			len(st.Replay), want, st.ReplayNext, st.ReplayFull)
	}
	for i := range st.Replay {
		if err := a.checkExperience(&st.Replay[i]); err != nil {
			return fmt.Errorf("replay experience %d: %w", i, err)
		}
	}
	return nil
}

// checkExperience validates one replay sample's vector lengths and action.
func (a *Agent) checkExperience(e *Experience) error {
	pd := a.cfg.PredDim()
	if len(e.State) != a.cfg.StateDim || len(e.Meas) != a.cfg.Measurements || len(e.Goal) != pd ||
		len(e.Target) != pd || len(e.Mask) != pd {
		return fmt.Errorf("vector lengths state=%d meas=%d goal=%d target=%d mask=%d, want %d/%d/%d/%d/%d",
			len(e.State), len(e.Meas), len(e.Goal), len(e.Target), len(e.Mask),
			a.cfg.StateDim, a.cfg.Measurements, pd, pd, pd)
	}
	if e.Action < 0 || e.Action >= a.cfg.Actions {
		return fmt.Errorf("action %d out of range for %d actions", e.Action, a.cfg.Actions)
	}
	return nil
}
