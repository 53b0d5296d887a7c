// Episode recording. An Actor is the one place an episode is recorded: a
// read-only inference clone of an Agent whose networks alias the master's
// weight Values (via nn.SharedClone) while its forward caches, scratch
// buffers, exploration rng, and episode record are private. Any number of
// actors may therefore run epsilon-greedy episodes concurrently against one
// set of weights, as long as nothing updates those weights until the rollouts
// finish — the synchronization contract internal/rollout's round barrier
// provides. Collected episodes are handed back to the master as opaque
// Transcripts and folded into the replay buffer with Agent.IngestTranscript.
package dfp

import (
	"math/rand"
	"slices"

	"repro/internal/nn"
)

// modules groups the five networks of the DFP architecture: the three input
// modules and the two dueling streams.
type modules struct {
	state nn.Layer
	meas  *nn.Sequential
	goal  *nn.Sequential
	exp   *nn.Sequential // joint -> PredDim
	act   *nn.Sequential // joint -> Actions*PredDim
}

// all returns the networks in the canonical parameter order (state, meas,
// goal, exp, act) — the order Agent.params, Save, and Load rely on.
func (m *modules) all() []nn.Layer {
	return []nn.Layer{m.state, m.meas, m.goal, m.exp, m.act}
}

// params returns the networks' parameters in the canonical order.
func (m *modules) params() []*nn.Param {
	var ps []*nn.Param
	for _, net := range m.all() {
		ps = append(ps, net.Params()...)
	}
	return ps
}

// cloneVia replicates the five networks through the given nn cloner:
// nn.SharedClone for replicas whose parameters alias the live weight Values
// (rollout actors, models and their readers, gradient workers),
// nn.SnapshotClone for replicas that read
// the published copy-on-write snapshot and so may run forward passes
// concurrently with TrainStep. Forward state is private; the clones carry no
// gradient storage, which only the gradient workers allocate (engine.go).
func (m *modules) cloneVia(clone func(nn.Layer) nn.Layer) modules {
	return modules{
		state: clone(m.state),
		meas:  clone(m.meas).(*nn.Sequential),
		goal:  clone(m.goal).(*nn.Sequential),
		exp:   clone(m.exp).(*nn.Sequential),
		act:   clone(m.act).(*nn.Sequential),
	}
}

// inferScratch owns the buffers of one zero-allocation inference pass.
// Every holder of a modules value pairs it with its own inferScratch, so
// forward passes never share mutable state across goroutines.
type inferScratch struct {
	goalExt     nn.Vec
	joint       nn.Vec
	meanA       nn.Vec
	predBacking nn.Vec
	predRows    [][]float64
	predOutBack nn.Vec      // backs the rows Predict hands out
	predOut     [][]float64 // row headers returned by Predict, reused per call
	score       nn.Vec
}

// forwardDueling is the one inference forward: it runs bsz row-major samples
// (a single decision is bsz=1) through the three input modules and the two
// streams, one batched pass per network, and applies the dueling combine.
// It returns bsz*Actions prediction rows — sample i's action a at index
// i*Actions+a — aliasing the scratch backing array (valid until the next
// call with the same scratch). Zero heap allocations in steady state. Each
// sample's rows are bitwise independent of bsz (the nn.Layer row contract),
// and the layers retain forward state, so at bsz=1 a backward may follow
// immediately (the reference step in engine_test.go does).
func (m *modules) forwardDueling(cfg *Config, s *inferScratch, state, meas, goalExt nn.Vec, bsz int) [][]float64 {
	so, h := cfg.StateOut, cfg.ModuleHidden
	pd, n := cfg.PredDim(), cfg.Actions
	jd := so + 2*h

	// Module outputs land in layer-owned buffers and are interleaved into
	// the joint rows (the training engine's layout).
	js := m.state.Forward(nil, state, bsz)
	jm := m.meas.Forward(nil, meas, bsz)
	jg := m.goal.Forward(nil, goalExt, bsz)
	s.joint = nn.Ensure(s.joint, bsz*jd)
	for i := 0; i < bsz; i++ {
		row := s.joint[i*jd : (i+1)*jd]
		copy(row[:so], js[i*so:(i+1)*so])
		copy(row[so:so+h], jm[i*h:(i+1)*h])
		copy(row[so+h:], jg[i*h:(i+1)*h])
	}
	exp := m.exp.Forward(nil, s.joint, bsz)
	act := m.act.Forward(nil, s.joint, bsz)

	// Dueling combine per sample: p_a = E + A_a - mean_a(A).
	s.meanA = nn.Ensure(s.meanA, pd)
	meanA := s.meanA
	s.predBacking = nn.Ensure(s.predBacking, bsz*n*pd)
	if cap(s.predRows) < bsz*n {
		s.predRows = make([][]float64, bsz*n)
	}
	s.predRows = s.predRows[:bsz*n]
	for i := 0; i < bsz; i++ {
		expRow := exp[i*pd : (i+1)*pd]
		actRow := act[i*n*pd : (i+1)*n*pd]
		nn.Fill(meanA, 0)
		for ai := 0; ai < n; ai++ {
			row := actRow[ai*pd : (ai+1)*pd]
			for k, v := range row {
				meanA[k] += v
			}
		}
		for k := range meanA {
			meanA[k] /= float64(n)
		}
		for ai := 0; ai < n; ai++ {
			row := actRow[ai*pd : (ai+1)*pd]
			p := s.predBacking[(i*n+ai)*pd : (i*n+ai+1)*pd]
			for k := range p {
				p[k] = expRow[k] + row[k] - meanA[k]
			}
			s.predRows[i*n+ai] = p
		}
	}
	return s.predRows
}

// scoreInto collapses predictions into one scalar objective per action: the
// dot product of the extended goal with each action's prediction.
func scoreInto(dst []float64, preds [][]float64, goalExt []float64) []float64 {
	for i, p := range preds {
		dst[i] = nn.Dot(goalExt, p)
	}
	return dst
}

// Actor is a read-only rollout clone of an Agent. It always acts in
// exploration mode (the epsilon-greedy policy of §IV-C) and records every
// decision; the recorded episode is retrieved with TakeTranscript and folded
// into the master with Agent.IngestTranscript. A model's Evaluator is an
// unrecorded actor at epsilon 0: it records nothing and may answer moot
// decisions with Moot. Reset a rollout actor with the episode's
// deterministic seed and exploration rate before each rollout.
//
// An Actor is not safe for concurrent use by multiple goroutines, but
// distinct actors may run concurrently with each other — not with TrainStep,
// which updates the shared weights.
type Actor struct {
	cfg  *Config
	nets modules
	scr  inferScratch

	rng        *rand.Rand
	eps        float64
	steps      []*stepRecord
	unrecorded bool
	packed     runs // a recorded state's runs, before the step keeps a copy of them

	// first is the state module's first Dense, which this actor packs: nil
	// when the module opens with anything else, or in an evaluator, whose
	// layer reads its model's one packed copy. Its own packed copy
	// (nn.Dense.Pack) is good from one Reset to the next — the interval over
	// which nothing may change the weights an actor reads — so Reset marks it
	// stale and the first forward after a Reset refreshes it.
	first  *nn.Dense
	repack bool
}

// firstDense returns the Dense a state module opens with, nil when it opens
// with anything else (the CNN, the per-resource branches).
func firstDense(state nn.Layer) *nn.Dense {
	if seq, ok := state.(*nn.Sequential); ok && len(seq.Layers) > 0 {
		d, _ := seq.Layers[0].(*nn.Dense)
		return d
	}
	return nil
}

// Actor returns a rollout actor reading the agent's live weights.
func (a *Agent) Actor() *Actor { return a.newActor(a.nets.cloneVia(nn.SharedClone)) }

// newActor builds an actor over nets, its own clones: only an actor's own
// layers are ever packed, Agent.Act runs through the master's and stays dense.
func (a *Agent) newActor(nets modules) *Actor {
	return &Actor{
		cfg: &a.cfg, nets: nets, first: firstDense(nets.state),
		rng: rand.New(rand.NewSource(a.cfg.Seed)), eps: a.eps,
	}
}

// SnapshotActor returns a rollout actor reading the published copy-on-write
// weight snapshot instead of the live weights (materializing the snapshot
// from the current weights on first use). Snapshot actors may run
// concurrently with each other AND with TrainStep — training mutates only
// the live Values — which is the property pipelined rollout-training
// (internal/rollout Config.Pipelined) is built on. The weights they see
// advance only when PublishWeights runs, which in turn must happen with no
// snapshot actor mid-rollout.
func (a *Agent) SnapshotActor() *Actor { return a.newActor(a.nets.cloneVia(nn.SnapshotClone)) }

// PublishWeights copies the live network weights into the snapshot read by
// SnapshotActor clones and bumps the version (nn.PublishParams). Call it
// only at a synchronization point with no snapshot actor mid-rollout; the
// actors observe the new weights on their next forward pass.
func (a *Agent) PublishWeights() { nn.PublishParams(a.params) }

// Reset prepares the actor for one episode: a fresh rng at the given seed,
// the episode's exploration rate (see Config.EpsilonAt), and an empty
// transcript. It is also where the actor catches up with its weights: an
// actor must be Reset after the weights it reads have changed (a TrainStep
// for Agent.Actor, a PublishWeights for Agent.SnapshotActor) and before it
// acts again, which is what every rollout round does. An actor that was never
// Reset reads the weights themselves. An evaluator's weights never change, so
// Reset repacks nothing there.
func (ac *Actor) Reset(seed int64, eps float64) {
	ac.rng = rand.New(rand.NewSource(seed))
	ac.eps = eps
	ac.steps = nil
	ac.repack = ac.first != nil
}

// Act selects an action among the first valid actions under the actor's
// epsilon-greedy policy (§IV-C) and, unless the actor is an evaluator,
// records the decision. It consumes the
// actor's rng as one Float64 per decision plus one Intn when exploring; at
// epsilon 0 it picks what the agent's greedy Act picks.
func (ac *Actor) Act(state, meas, goal []float64, valid int) int {
	valid = ac.clampValid(valid)
	ac.scr.goalExt = nn.Ensure(ac.scr.goalExt, ac.cfg.GoalDim())
	goalExt := ac.cfg.extendGoalInto(ac.scr.goalExt, goal)
	var action int
	if ac.rng.Float64() < ac.eps {
		action = ac.rng.Intn(valid)
	} else {
		if ac.repack {
			ac.first.Pack()
			ac.repack = false
		}
		ac.scr.score = nn.Ensure(ac.scr.score, ac.cfg.Actions)
		scores := scoreInto(ac.scr.score, ac.nets.forwardDueling(ac.cfg, &ac.scr, state, meas, goalExt, 1), goalExt)
		action = nn.ArgMax(scores[:valid])
	}
	if ac.unrecorded {
		return action
	}
	ac.packed = appendRuns(ac.packed[:0], state)
	ac.steps = append(ac.steps, &stepRecord{
		state:  slices.Clone(ac.packed),
		meas:   append([]float64(nil), meas...),
		goal:   append([]float64(nil), goalExt...),
		action: action,
		valid:  valid,
	})
	return action
}

// Moot answers a decision whose choice cannot matter (for MRSch, an instant
// where no waiting job fits: sched.PickContext.Startable) without a forward
// pass: it draws the actor's rng exactly as Act would — one Float64, plus
// one Intn when exploring — and returns the explored action, or 0 where Act
// would have asked the networks. The stream, and so every later decision,
// stays the one Act would have left. It panics on a recording actor: a
// transcript is training data and needs the networks' choice.
func (ac *Actor) Moot(valid int) int {
	if !ac.unrecorded {
		panic("dfp: Moot on a recording actor: a transcript needs the networks' choice (use Model.Evaluator)")
	}
	if ac.rng.Float64() < ac.eps {
		return ac.rng.Intn(ac.clampValid(valid))
	}
	return 0
}

// clampValid is the number of actions a decision chooses among: valid, or
// every action when valid is out of range.
func (ac *Actor) clampValid(valid int) int {
	if valid <= 0 || valid > ac.cfg.Actions {
		return ac.cfg.Actions
	}
	return valid
}

// stepRecord is one recorded decision. Its state is kept in the replay's
// run-length form, which IngestTranscript moves into the Experience as it is.
type stepRecord struct {
	state  runs
	meas   []float64
	goal   []float64 // extended goal (PredDim)
	action int
	valid  int // number of valid actions at that step
}

// Transcript is one episode's recorded decisions, opaque to callers. It is
// produced by Actor.TakeTranscript and consumed by Agent.IngestTranscript.
type Transcript struct {
	steps []*stepRecord
}

// TakeTranscript detaches and returns the episode recorded so far, leaving
// the actor empty for the next rollout.
func (ac *Actor) TakeTranscript() *Transcript {
	t := &Transcript{steps: ac.steps}
	ac.steps = nil
	return t
}

// IngestTranscript folds an actor-collected episode into the replay buffer:
// each step's target is the realized measurement change at every temporal
// offset, with offsets that run past the episode end masked out, and a step
// with no offset left is dropped. It then decays epsilon.
func (a *Agent) IngestTranscript(t *Transcript) {
	steps := t.steps
	pd := a.cfg.PredDim()
	m := a.cfg.Measurements
	for i, st := range steps {
		target := make([]float64, pd)
		mask := make([]bool, pd)
		any := false
		for k, off := range a.cfg.Offsets {
			tf := i + off
			if tf >= len(steps) {
				continue
			}
			for mi := 0; mi < m; mi++ {
				target[k*m+mi] = steps[tf].meas[mi] - st.meas[mi]
				mask[k*m+mi] = true
			}
			any = true
		}
		if !any {
			continue
		}
		a.replay.add(&Experience{
			State: st.state, Meas: st.meas, Goal: st.goal,
			Action: st.action, Target: target, Mask: mask,
		})
	}
	a.eps *= a.cfg.EpsDecay
	if a.eps < a.cfg.EpsMin {
		a.eps = a.cfg.EpsMin
	}
}
