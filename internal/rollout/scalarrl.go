package rollout

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rl"
)

// scalarRLLearner adapts the policy-gradient baseline to the harness: actors
// are rl.Actor clones sampling trajectories against shared weights, Reduce
// applies the REINFORCE update per episode in order.
type scalarRLLearner struct {
	s   *rl.Scheduler
	cfg core.TrainConfig
}

// NewScalarRLLearner adapts a scalar-RL scheduler for Train.
// Only cfg.System and cfg.MaxEventsPerEpisode are consulted — REINFORCE
// takes exactly one update per episode, so StepsPerEpisode does not apply.
func NewScalarRLLearner(s *rl.Scheduler, cfg core.TrainConfig) Learner {
	return &scalarRLLearner{s: s, cfg: cfg}
}

func (l *scalarRLLearner) Spawn() (Actor, bool) {
	return &scalarRLActor{l: l, a: l.s.Actor()}, true
}

// SpawnSnapshot implements SnapshotLearner: actors sample trajectories
// against the published weight snapshot (rl.Scheduler.SnapshotActor), so
// collection may overlap the REINFORCE updates (Config.Pipelined).
func (l *scalarRLLearner) SpawnSnapshot() Actor {
	return &scalarRLActor{l: l, a: l.s.SnapshotActor()}
}

// Publish implements SnapshotLearner: advance the snapshot to the live
// weights at a round boundary.
func (l *scalarRLLearner) Publish() { l.s.PublishWeights() }

func (l *scalarRLLearner) Reduce(ep Episode, tr Transcript) (core.EpisodeResult, error) {
	t, ok := tr.(*rl.Trajectory)
	if !ok {
		return core.EpisodeResult{}, fmt.Errorf("rollout: scalar-RL reduce got %T", tr)
	}
	loss := l.s.IngestTrajectory(t)
	return core.EpisodeResult{Set: ep.Set.Kind, Loss: loss}, nil
}

type scalarRLActor struct {
	l *scalarRLLearner
	a *rl.Actor
}

func (w *scalarRLActor) Rollout(ep Episode) (Transcript, error) {
	w.a.Reset(ep.Seed)
	if err := runEpisode(w.l.cfg, w.a.Policy(), ep.Set.Jobs); err != nil {
		return nil, err
	}
	return w.a.TakeTrajectory(), nil
}
