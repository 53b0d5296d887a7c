package rl

import (
	"math/rand"
	"slices"

	"repro/internal/nn"
	"repro/internal/sched"
)

// Actor is a read-only rollout clone of a Scheduler: its policy network
// aliases the master's weights (nn.SharedClone) while its forward caches,
// sampling rng, and trajectory record are private, so multiple actors can
// sample episodes in parallel against one set of weights. Actors always
// sample stochastically over the valid prefix; the recorded trajectory is
// handed back with TakeTrajectory and applied to the master with
// Scheduler.IngestTrajectory. An actor is the only way an episode is
// recorded; an Evaluator samples the same way and records nothing.
type Actor struct {
	s     *Scheduler // read-only: cfg, enc, reward weights
	net   *nn.Sequential
	rng   *rand.Rand
	steps []step

	unrecorded bool
	state      []float64 // the pick in progress; a recorded step keeps a copy
}

// Actor returns a rollout actor reading the scheduler's live weights.
func (s *Scheduler) Actor() *Actor { return s.newActor(nn.SharedClone) }

func (s *Scheduler) newActor(clone func(nn.Layer) nn.Layer) *Actor {
	return &Actor{s: s, net: clone(s.net).(*nn.Sequential), rng: rand.New(rand.NewSource(s.cfg.Seed))}
}

// Evaluator returns an actor that samples the scheduler's policy from a
// stream seeded seed, as a rollout actor Reset at seed does, but keeps no
// trajectory (and computes no reward): the actor every whole-schedule
// evaluation of the scheduler runs through.
func (s *Scheduler) Evaluator(seed int64) *Actor {
	a := s.Actor()
	a.Reset(seed)
	a.unrecorded = true
	return a
}

// SnapshotActor returns a rollout actor whose policy network reads the
// published copy-on-write weight snapshot (nn.SnapshotClone) instead of the
// live weights, so it may sample episodes concurrently with REINFORCE
// updates on the master — the scalar-RL side of pipelined rollout-training.
// The weights it sees advance only at PublishWeights, which must run with no
// snapshot actor mid-rollout.
func (s *Scheduler) SnapshotActor() *Actor { return s.newActor(nn.SnapshotClone) }

// PublishWeights copies the live policy weights into the snapshot read by
// SnapshotActor clones (nn.PublishParams). Call it only at a synchronization
// point with no snapshot actor mid-rollout.
func (s *Scheduler) PublishWeights() { nn.PublishParams(s.net.Params()) }

var _ sched.Picker = (*Actor)(nil)

// Reset prepares the actor for one episode: a fresh sampling rng at the
// given seed and an empty trajectory.
func (a *Actor) Reset(seed int64) {
	a.rng = rand.New(rand.NewSource(seed))
	a.steps = nil
}

// Pick implements sched.Picker: stochastic sampling over the valid window
// prefix, recording the fixed-weight scalar reward of the selection.
func (a *Actor) Pick(ctx *sched.PickContext) int {
	a.state = a.s.enc.EncodeInto(a.state, ctx)
	probs := a.net.Forward(nil, a.state, 1)
	valid := len(ctx.Window)
	if valid > a.s.cfg.Window {
		valid = a.s.cfg.Window
	}
	action := samplePrefix(probs, valid, a.rng)
	if a.unrecorded {
		return action
	}
	a.steps = append(a.steps, step{
		state:  slices.Clone(a.state),
		action: action,
		valid:  valid,
		reward: a.s.reward(ctx, action),
	})
	return action
}

// Policy wraps the actor in the shared scheduling framework with the
// master's window size.
func (a *Actor) Policy() *sched.WindowPolicy {
	return sched.NewWindowPolicy(a, a.s.cfg.Window)
}

// Trajectory is one episode's recorded decisions, opaque to callers. It is
// produced by Actor.TakeTrajectory and consumed by Scheduler.IngestTrajectory.
type Trajectory struct {
	steps []step
}

// TakeTrajectory detaches and returns the episode recorded since the last
// Reset, leaving the actor empty for the next rollout.
func (a *Actor) TakeTrajectory() *Trajectory {
	t := &Trajectory{steps: a.steps}
	a.steps = nil
	return t
}
