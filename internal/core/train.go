package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
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

// TrainConfig drives curriculum training (§III-D) through the
// internal/rollout learners.
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
