package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// JobSetKind labels the three curriculum set types of §III-D.
type JobSetKind int

// Curriculum job-set kinds.
const (
	Sampled   JobSetKind = iota // Poisson-arrival samples of the real trace
	Real                        // slices of the real trace
	Synthetic                   // generator-matched synthetic patterns
)

// String implements fmt.Stringer.
func (k JobSetKind) String() string {
	switch k {
	case Sampled:
		return "Sampled"
	case Real:
		return "Real"
	case Synthetic:
		return "Synthetic"
	default:
		return fmt.Sprintf("JobSetKind(%d)", int(k))
	}
}

// JobSet is one training unit: a batch of jobs replayed as a single episode.
type JobSet struct {
	Kind JobSetKind
	Jobs []*job.Job
}

// TrainConfig drives curriculum training (§III-D).
type TrainConfig struct {
	// System is the simulated machine.
	System cluster.Config
	// StepsPerEpisode is how many gradient steps follow each episode.
	StepsPerEpisode int
	// MaxEventsPerEpisode bounds a single episode's scheduling rounds
	// (0 = unlimited); guards against degenerate exploration livelock.
	MaxEventsPerEpisode int
}

// EpisodeResult reports one training episode.
type EpisodeResult struct {
	Set     JobSetKind
	Loss    float64 // mean MSE across the gradient steps (-1 if none ran)
	Epsilon float64
}

// TrainEpisode replays one job set through the simulator with the agent in
// exploration mode, then folds the episode into the replay buffer and takes
// gradient steps. It returns the mean training loss.
func TrainEpisode(m *MRSch, cfg TrainConfig, set JobSet) (EpisodeResult, error) {
	m.Train = true
	defer func() { m.Train = false }()

	policy := m.Policy()
	s := sim.New(cfg.System, policy)
	if cfg.MaxEventsPerEpisode > 0 {
		s.SetMaxEvents(cfg.MaxEventsPerEpisode)
	}
	if err := s.Load(job.CloneAll(set.Jobs)); err != nil {
		return EpisodeResult{}, fmt.Errorf("core: train episode: %w", err)
	}
	if err := s.Run(); err != nil {
		return EpisodeResult{}, fmt.Errorf("core: train episode: %w", err)
	}
	m.Agent.EndEpisode()

	steps := cfg.StepsPerEpisode
	if steps <= 0 {
		steps = 16
	}
	total, n := 0.0, 0
	m.Agent.TrainSteps(steps, func(l float64) {
		if l >= 0 {
			total += l
			n++
		}
	})
	res := EpisodeResult{Set: set.Kind, Epsilon: m.Agent.Epsilon(), Loss: -1}
	if n > 0 {
		res.Loss = total / float64(n)
	}
	return res, nil
}
