package rollout

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// mrschLearner adapts an MRSch agent to the harness: actors are
// core.MRSchActor clones sharing the master weights, Reduce ingests each
// transcript into the replay buffer and runs the per-episode gradient steps.
type mrschLearner struct {
	m    *core.MRSch
	cfg  core.TrainConfig
	acfg dfp.Config // snapshot of the agent config (epsilon schedule)

	// Instruments, wired by Instrument (rollout.Instrumented); nil-safe
	// orphans until then, and `timed` gates the clock reads around
	// gradient steps (observe-only: doc rule 11).
	timed     bool
	trainStep *telemetry.Histogram
	replayOcc *telemetry.Gauge
}

// stepPhaseNames are the histograms of where the reducing goroutine spends a
// gradient step (dfp.StepPhases), in its field order; they tile
// dfp_train_step_ns less the minibatch sampling that precedes a step.
var stepPhaseNames = [4]string{"dfp_step_shard_ns", "dfp_step_fold_ns", "dfp_step_adam_ns", "dfp_step_wait_ns"}

// NewMRSchLearner adapts an MRSch agent for Train. cfg follows
// core.TrainConfig semantics with one extension: StepsPerEpisode < 0 runs no
// gradient steps at all (pure episode collection, used by the throughput
// benchmark), while 0 keeps the package default of 16.
func NewMRSchLearner(m *core.MRSch, cfg core.TrainConfig) Learner {
	return &mrschLearner{m: m, cfg: cfg, acfg: m.Agent.Config()}
}

// Instrument implements Instrumented: the adapter exports the DFP engine's
// per-gradient-step latency, its split over the step's phases, and
// replay-buffer occupancy.
func (l *mrschLearner) Instrument(reg *telemetry.Registry) {
	l.timed = true
	l.trainStep = reg.Histogram("dfp_train_step_ns")
	l.replayOcc = reg.Gauge("dfp_replay_occupancy")
	var phase [4]*telemetry.Histogram
	for i, name := range stepPhaseNames {
		phase[i] = reg.Histogram(name)
	}
	l.m.Agent.ObserveSteps(func(p dfp.StepPhases) {
		for i, d := range [4]time.Duration{p.Shard, p.Fold, p.Adam, p.Wait} {
			phase[i].RecordDuration(d)
		}
	})
}

func (l *mrschLearner) Spawn() (Actor, bool) {
	a, _ := l.m.Actor()
	return &mrschActor{l: l, a: a}, true
}

// SpawnSnapshot implements SnapshotLearner: actors read the published
// weight snapshot (core.MRSch.SnapshotActor), so they may roll out while
// Reduce's gradient steps mutate the live weights (Config.Pipelined).
func (l *mrschLearner) SpawnSnapshot() Actor {
	return &mrschActor{l: l, a: l.m.SnapshotActor()}
}

// Publish implements SnapshotLearner: advance the snapshot to the live
// weights at a round boundary.
func (l *mrschLearner) Publish() { l.m.PublishWeights() }

func (l *mrschLearner) Reduce(ep Episode, tr Transcript) (core.EpisodeResult, error) {
	t, ok := tr.(*dfp.Transcript)
	if !ok {
		return core.EpisodeResult{}, fmt.Errorf("rollout: MRSch reduce got %T", tr)
	}
	l.m.Ingest(t)
	steps := l.cfg.StepsPerEpisode
	if steps == 0 {
		steps = 16
	}
	// One burst for the episode's steps (dfp.Agent.TrainSteps). The clock
	// is read between steps, only when instrumented: a step's sample runs
	// from the read that ended the step before it to the one that ends it,
	// and the steps themselves are untouched.
	total, n := 0.0, 0
	var t0 time.Time
	if l.timed {
		t0 = time.Now()
	}
	l.m.Agent.TrainSteps(steps, func(loss float64) {
		if l.timed {
			now := time.Now()
			l.trainStep.RecordDuration(now.Sub(t0))
			t0 = now
		}
		if loss >= 0 {
			total += loss
			n++
		}
	})
	if l.timed {
		l.replayOcc.Set(float64(l.m.Agent.ReplaySize()))
	}
	res := core.EpisodeResult{Set: ep.Set.Kind, Epsilon: l.m.Agent.Epsilon(), Loss: -1}
	if n > 0 {
		res.Loss = total / float64(n)
	}
	return res, nil
}

type mrschActor struct {
	l *mrschLearner
	a *core.MRSchActor
}

// Rollout replays the job set through a fresh simulator with the actor
// exploring at the episode's slot in the epsilon schedule, so the
// exploration stream depends only on (harness seed, episode index).
func (w *mrschActor) Rollout(ep Episode) (Transcript, error) {
	w.a.Reset(ep.Seed, w.l.acfg.EpsilonAt(ep.Index))
	if err := runEpisode(w.l.cfg, w.a.Policy(), ep.Set.Jobs); err != nil {
		return nil, err
	}
	return w.a.TakeTranscript(), nil
}

// runEpisode replays a job set through a fresh simulator on cfg.System
// under policy, capped at cfg.MaxEventsPerEpisode events when that is set.
// The jobs are cloned first: a job set is replayed by every episode that
// draws it. It is the episode both learners' actors run.
func runEpisode(cfg core.TrainConfig, policy sim.Policy, jobs []*job.Job) error {
	s := sim.New(cfg.System, policy)
	if cfg.MaxEventsPerEpisode > 0 {
		s.SetMaxEvents(cfg.MaxEventsPerEpisode)
	}
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		return err
	}
	return s.Run()
}
