package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/nn"
	"repro/internal/sim"
)

// This file implements the paper's model-validation protocol (§IV-A): the
// trace is split chronologically into training, validation, and test
// portions; during training the agent is periodically evaluated greedily on
// the validation workload and the best-scoring weights are kept.

// ValidationMetrics summarizes one greedy evaluation on a held-out set.
type ValidationMetrics struct {
	// Utilization per resource, and the user-level metrics of §IV-B.
	Utilization []float64
	AvgWaitSec  float64
	AvgSlowdown float64
	// Score is the model-selection criterion: mean resource utilization
	// (the site objective the agent is trained to maximize).
	Score float64
}

// Validate replays jobs through the agent greedily (no exploration, no
// recording) and scores the outcome.
func Validate(m *MRSch, sys cluster.Config, jobs []*job.Job) (ValidationMetrics, error) {
	s := sim.New(sys, m.Policy())
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		return ValidationMetrics{}, fmt.Errorf("core: validate: %w", err)
	}
	if err := s.Run(); err != nil {
		return ValidationMetrics{}, fmt.Errorf("core: validate: %w", err)
	}
	var vm ValidationMetrics
	for r := 0; r < s.Cluster().NumResources(); r++ {
		u := s.Utilization(r)
		vm.Utilization = append(vm.Utilization, u)
		vm.Score += u
	}
	vm.Score /= float64(len(vm.Utilization))
	var wait, sd float64
	for _, j := range s.Finished() {
		wait += j.Wait()
		sd += j.Slowdown()
	}
	if n := len(s.Finished()); n > 0 {
		vm.AvgWaitSec = wait / float64(n)
		vm.AvgSlowdown = sd / float64(n)
	}
	return vm, nil
}

// Selection tracks the §IV-A model-selection protocol across a training
// run: every Every episodes the agent is scored greedily on the validation
// workload and the best-scoring weights are snapshotted; Finish restores
// them. It is the single implementation of the protocol; the rollout
// harness runs it as an AfterEpisode hook (experiments.Train with
// TrainRun.Validate), between rounds, when the weights are stable.
type Selection struct {
	m          *MRSch
	sys        cluster.Config
	validation []*job.Job
	every      int

	best        ValidationMetrics
	bestWeights []byte
}

// NewSelection prepares the protocol for one training run. every <= 0 means
// validate after every episode.
func NewSelection(m *MRSch, sys cluster.Config, validation []*job.Job, every int) *Selection {
	if every <= 0 {
		every = 1
	}
	return &Selection{m: m, sys: sys, validation: validation, every: every}
}

// AfterEpisode scores the agent when episode i completes a validation
// interval and snapshots the weights on a new best score. Its signature
// matches the rollout harness's AfterEpisode hook.
func (s *Selection) AfterEpisode(i int, _ EpisodeResult) error {
	if len(s.validation) == 0 || (i+1)%s.every != 0 {
		return nil
	}
	vm, err := Validate(s.m, s.sys, s.validation)
	if err != nil {
		return err
	}
	if s.bestWeights == nil || vm.Score > s.best.Score {
		s.best = vm
		var buf bytes.Buffer
		if err := s.m.Save(&buf); err != nil {
			return err
		}
		s.bestWeights = buf.Bytes()
	}
	return nil
}

// selectionMagic versions the serialized model-selection state.
const selectionMagic = "mrsch-selection-v1"

func init() {
	// Fixed-order gob type-ID claim, keeping encoded bytes history-free
	// (see nn.GobWarmup).
	nn.RegisterGobContainer(func(enc *gob.Encoder) { enc.Encode(&selectionState{}) })
}

// selectionState is the serializable §IV-A protocol state: the best
// validation metrics seen so far and the weight snapshot that scored them.
type selectionState struct {
	Magic       string
	Best        ValidationMetrics
	BestWeights []byte
}

// SaveState persists the protocol's progress so a checkpointed validated
// training run can resume without silently losing the best weights seen
// before the interruption (experiments wires it into the train checkpoint).
func (s *Selection) SaveState(w io.Writer) error {
	st := selectionState{Magic: selectionMagic, Best: s.best, BestWeights: s.bestWeights}
	return nn.EncodeChecksummed(w, &st)
}

// LoadState restores protocol state written by SaveState. Nothing is
// mutated on error.
func (s *Selection) LoadState(r io.Reader) error {
	var st selectionState
	if err := nn.DecodeChecksummed(r, &st); err != nil {
		return fmt.Errorf("core: selection state: %w", err)
	}
	if st.Magic != selectionMagic {
		return fmt.Errorf("core: selection state: bad magic %q (want %q; corrupt file or incompatible format version)", st.Magic, selectionMagic)
	}
	s.best = st.Best
	s.bestWeights = st.BestWeights
	return nil
}

// Finish restores the best-scoring weights (when any validation ran) and
// returns the best metrics observed.
func (s *Selection) Finish() (ValidationMetrics, error) {
	if s.bestWeights != nil {
		if err := s.m.Load(bytes.NewReader(s.bestWeights)); err != nil {
			return s.best, err
		}
	}
	return s.best, nil
}
