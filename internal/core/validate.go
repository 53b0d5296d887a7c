package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/wire"
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

// Validate replays jobs through the model's evaluator (greedy, no
// recording) and scores the outcome with §IV-B's metrics (metrics.Collect).
func Validate(m *Model, sys cluster.Config, jobs []*job.Job) (ValidationMetrics, error) {
	s := sim.New(sys, m.Evaluator().Policy())
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		return ValidationMetrics{}, fmt.Errorf("core: validate: %w", err)
	}
	if err := s.Run(); err != nil {
		return ValidationMetrics{}, fmt.Errorf("core: validate: %w", err)
	}
	rep := metrics.Collect("", "", s, -1)
	vm := ValidationMetrics{Utilization: rep.Utilization, AvgWaitSec: rep.AvgWaitSec, AvgSlowdown: rep.AvgSlowdown}
	for _, u := range vm.Utilization {
		vm.Score += u
	}
	vm.Score /= float64(len(vm.Utilization))
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

	best ValidationMetrics
	// bestWeights are the agent's weights (nn.Weights) at its best score, nil
	// until a validation has run.
	bestWeights []*nn.Param
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
	vm, err := Validate(s.m.Model(), s.sys, s.validation)
	if err != nil {
		return err
	}
	if s.bestWeights == nil || vm.Score > s.best.Score {
		s.best = vm
		s.bestWeights = nn.Weights(s.m.Agent.Params())
	}
	return nil
}

// selectionMagic versions the model-selection section. v1 was a gob
// container that carried the best weights as a whole weights file.
const selectionMagic = "mrsch-selection-v2"

// AppendState appends the protocol's progress to b as a section — the best
// validation metrics, then whether a validation has run and, if one has, the
// weights section of the weights that scored them — so a checkpointed
// validated training run can resume without silently losing the best weights
// seen before the interruption (experiments seals it into the train
// checkpoint).
func (s *Selection) AppendState(b []byte) []byte {
	b = wire.AppendString(b, selectionMagic)
	b = wire.AppendUvarint(b, uint64(len(s.best.Utilization)))
	b = wire.AppendFloats(b, s.best.Utilization)
	b = wire.AppendFloat(b, s.best.AvgWaitSec)
	b = wire.AppendFloat(b, s.best.AvgSlowdown)
	b = wire.AppendFloat(b, s.best.Score)
	b = wire.AppendBool(b, s.bestWeights != nil)
	if s.bestWeights != nil {
		b = nn.AppendWeights(b, s.bestWeights)
	}
	return b
}

// ReadState decodes a section written by AppendState and checks it — the
// best weights against the agent's parameters — without changing anything.
// It returns the function that applies it.
func (s *Selection) ReadState(r *wire.Reader) (func(), error) {
	if err := r.Magic(selectionMagic); err != nil {
		return nil, err
	}
	var best ValidationMetrics
	if n := r.Count(8); n > 0 {
		best.Utilization = r.Floats(n)
	}
	best.AvgWaitSec, best.AvgSlowdown, best.Score = r.Float(), r.Float(), r.Float()
	var weights []*nn.Param
	if r.Bool() {
		var err error
		if weights, err = nn.ReadWeights(r, s.m.Agent.Params()); err != nil {
			return nil, fmt.Errorf("selection state: best weights: %w", err)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() { s.best, s.bestWeights = best, weights }, nil
}

// Finish restores the best-scoring weights (when any validation ran) and
// returns the best metrics observed.
func (s *Selection) Finish() ValidationMetrics {
	if s.bestWeights != nil {
		nn.SetWeights(s.m.Agent.Params(), s.bestWeights)
	}
	return s.best
}
