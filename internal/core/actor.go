package core

import (
	"repro/internal/dfp"
	"repro/internal/encode"
	"repro/internal/sched"
)

// MRSchActor is a read-only rollout clone of an MRSch agent: it encodes
// states and computes the Eq. (1) goal vector exactly like the master's Pick,
// but acts through a dfp.Actor whose networks alias the master's weights
// while all mutable state (forward caches, exploration rng, episode record)
// is private. Multiple actors may roll out episodes in
// parallel against one master, provided the master's weights are not updated
// until the rollouts finish — internal/rollout's round barrier guarantees
// that. An actor is the one place an episode is recorded; a model's
// Evaluator records nothing, acts greedily and runs no model where its pick
// is moot (see Pick). An observer of the picks (Figures 8/9 sample the goal
// vector) wraps the actor in a sched.PickerFunc.
type MRSchActor struct {
	enc       encode.Config
	ac        *dfp.Actor
	fixedGoal []float64
	evaluator bool // built by Model.Evaluator: moot picks skip the model

	state, goal []float64 // the pick in progress; the dfp actor copies what it records
	goals       goalTable
}

// Actor returns a rollout actor reading the agent's live weights. The second
// result is always true: bench/ reads it, and only ROADMAP item 1 may edit
// bench/.
func (m *MRSch) Actor() (*MRSchActor, bool) {
	return &MRSchActor{enc: m.Enc, ac: m.Agent.Actor(), fixedGoal: m.FixedGoal}, true
}

// Evaluator returns the actor every whole-schedule evaluation of the model
// runs through (dfp.Model.Evaluator): greedy at epsilon 0, no transcript, no
// allocation per pick once its buffers are warm, and no model at an instant
// where no waiting job fits. Its picks are its agent's Pick at every
// startable instant, so its schedule is the one sched.NewWindowPolicy(agent,
// m.Enc.Window) runs. It takes no seed: at epsilon 0 its rng cannot change a
// pick. Any number of evaluators of one model may run at once.
func (m *Model) Evaluator() *MRSchActor {
	return &MRSchActor{enc: m.Enc, ac: m.DFP.Evaluator(), fixedGoal: m.FixedGoal, evaluator: true}
}

// SnapshotActor returns a rollout actor reading the agent's published
// copy-on-write weight snapshot (dfp.Agent.SnapshotActor) rather than the
// live weights, so it may roll out episodes concurrently with TrainStep —
// the contract pipelined training (internal/rollout Config.Pipelined) relies
// on.
func (m *MRSch) SnapshotActor() *MRSchActor {
	return &MRSchActor{enc: m.Enc, ac: m.Agent.SnapshotActor(), fixedGoal: m.FixedGoal}
}

// PublishWeights advances the snapshot read by SnapshotActor clones to the
// current live weights. Call only with no snapshot actor mid-rollout.
func (m *MRSch) PublishWeights() { m.Agent.PublishWeights() }

var _ sched.Picker = (*MRSchActor)(nil)

// Reset prepares the actor for one episode: a fresh exploration rng at the
// given seed, the episode's epsilon (see dfp.Config.EpsilonAt), and an empty
// transcript.
func (a *MRSchActor) Reset(seed int64, eps float64) { a.ac.Reset(seed, eps) }

// Pick implements sched.Picker with the master's decision logic in
// exploration mode: encode the state, compute the dynamic goal vector, and
// let the DFP actor choose (and record) a window job. An evaluator skips all
// three where no waiting job fits (sched.PickContext.Startable, which the
// simulator's round answers from its demand columns), since the round starts
// nothing whatever it picks; dfp.Actor.Moot draws the exploration rng as the
// forward path would, so later picks do not move. A context no round built,
// such as a daemon request's, counts as startable.
func (a *MRSchActor) Pick(ctx *sched.PickContext) int {
	if a.evaluator && !ctx.Startable() {
		return a.ac.Moot(len(ctx.Window))
	}
	a.state = a.enc.EncodeInto(a.state, ctx)
	goal := a.fixedGoal
	if goal == nil {
		a.goal = a.goals.into(a.goal, ctx)
		goal = a.goal
	}
	return a.ac.Act(a.state, ctx.Usage, goal, len(ctx.Window))
}

// Policy wraps the actor in the shared window/reservation/backfilling driver
// with the master's window size.
func (a *MRSchActor) Policy() *sched.WindowPolicy {
	return sched.NewWindowPolicy(a, a.enc.Window)
}

// TakeTranscript detaches the episode recorded since the last Reset.
func (a *MRSchActor) TakeTranscript() *dfp.Transcript { return a.ac.TakeTranscript() }

// Ingest folds an actor-collected episode into the agent's replay buffer and
// decays its exploration schedule (dfp.Agent.IngestTranscript).
func (m *MRSch) Ingest(t *dfp.Transcript) { m.Agent.IngestTranscript(t) }
