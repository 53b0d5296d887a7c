package dfp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// actorTestAgent builds a small agent with a filled replay buffer seed.
func actorTestAgent(t *testing.T) *Agent {
	t.Helper()
	cfg := DefaultConfig(24, 2, 5)
	cfg.Offsets = []int{1, 2, 4}
	cfg.TemporalWeights = []float64{0.5, 0.5, 1}
	cfg.StateHidden = []int{16}
	cfg.StateOut = 8
	cfg.ModuleHidden = 8
	cfg.StreamHidden = 8
	return New(cfg)
}

func randInputs(rng *rand.Rand, stateDim, meas int) ([]float64, []float64, []float64) {
	state := make([]float64, stateDim)
	for i := range state {
		state[i] = rng.Float64()
	}
	m := make([]float64, meas)
	g := make([]float64, meas)
	for i := range m {
		m[i] = rng.Float64()
		g[i] = rng.Float64()
	}
	return state, m, g
}

// A greedy actor (eps=0) must pick exactly what the master's greedy Act
// picks: they share weights, so the forward passes are identical arithmetic.
func TestActorMatchesGreedyMaster(t *testing.T) {
	a := actorTestAgent(t)
	ac := a.Actor()
	ac.Reset(99, 0) // eps=0: greedy
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		state, meas, goal := randInputs(rng, a.cfg.StateDim, a.cfg.Measurements)
		want := a.Act(state, meas, goal, 5, false)
		got := ac.Act(state, meas, goal, 5)
		if got != want {
			t.Fatalf("step %d: actor picked %d, master %d", i, got, want)
		}
	}
	if n := len(ac.steps); n != 20 {
		t.Fatalf("actor recorded %d steps, want 20", n)
	}
}

// recordEpisode runs an n-step episode of random inputs drawn from seed
// through a fresh actor at the agent's current epsilon and ingests it — the
// one way an episode reaches the replay.
func recordEpisode(a *Agent, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	ac := a.Actor()
	ac.Reset(seed, a.Epsilon())
	for i := 0; i < n; i++ {
		state, meas, goal := randInputs(rng, a.cfg.StateDim, a.cfg.Measurements)
		ac.Act(state, meas, goal, a.cfg.Actions)
	}
	a.IngestTranscript(ac.TakeTranscript())
}

// EpsilonAt must reproduce the value Epsilon reports after i ingested
// episodes — the contract rollout actors rely on.
func TestEpsilonAtMatchesDecay(t *testing.T) {
	a := actorTestAgent(t)
	for i := 0; i < 40; i++ {
		if got, want := a.cfg.EpsilonAt(i), a.Epsilon(); got != want {
			t.Fatalf("episode %d: EpsilonAt=%v, live epsilon=%v", i, got, want)
		}
		a.IngestTranscript(&Transcript{})
	}
}

// An actor's recording is its own until it is ingested: the master's replay
// and epsilon do not move while the actor acts, and TakeTranscript hands the
// whole episode over and leaves the actor empty.
func TestActorRecordingIsIndependent(t *testing.T) {
	a := actorTestAgent(t)
	ac := a.Actor()
	ac.Reset(5, 1) // eps=1: pure random exploration, no forward pass
	rng := rand.New(rand.NewSource(3))
	state, meas, goal := randInputs(rng, a.cfg.StateDim, a.cfg.Measurements)
	for i := 0; i < 6; i++ {
		ac.Act(state, meas, goal, 5)
	}
	if a.ReplaySize() != 0 || a.Epsilon() != a.cfg.EpsStart {
		t.Fatalf("acting moved the master: replay %d, epsilon %g", a.ReplaySize(), a.Epsilon())
	}
	tr := ac.TakeTranscript()
	if len(tr.steps) != 6 {
		t.Fatalf("transcript has %d steps, want 6", len(tr.steps))
	}
	if len(ac.steps) != 0 {
		t.Fatal("TakeTranscript did not clear the actor")
	}
	a.IngestTranscript(tr)
	if a.ReplaySize() == 0 || a.Epsilon() == a.cfg.EpsStart {
		t.Fatalf("ingesting moved nothing: replay %d, epsilon %g", a.ReplaySize(), a.Epsilon())
	}
}

// actorPreds runs one greedy decision through the actor and returns copies of
// the predictions its forward left behind, one row per action.
func actorPreds(ac *Actor, state, meas, goal []float64) (int, [][]float64) {
	action := ac.Act(state, meas, goal, ac.cfg.Actions)
	rows := make([][]float64, len(ac.scr.predRows))
	for i, p := range ac.scr.predRows {
		rows[i] = append([]float64(nil), p...)
	}
	return action, rows
}

func samePreds(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("%s: action %d prediction %d: %v, want %v", what, i, k, got[i][k], want[i][k])
			}
		}
	}
}

// An actor's packed first layer is a copy, good from one Reset to the next.
// After the master trains, a Reset brings the actor back to what a fresh actor
// and the agent itself compute, bit for bit — and, where the kernel set packs,
// the copy really was stale until then, which is why Reset is the rule.
func TestActorRepacksOnReset(t *testing.T) {
	a := snapshotTestAgent(t)
	ac := a.Actor()
	if ac.first == nil {
		t.Fatal("the MLP state module opens with a Dense; the actor should hold it")
	}
	rng := rand.New(rand.NewSource(5))
	state, meas, goal := randInputs(rng, a.cfg.StateDim, a.cfg.Measurements)
	for i := range state {
		if i%3 != 0 {
			state[i] = 0 // zero runs, as the encoder leaves them
		}
	}
	goalExt := a.cfg.extendGoalInto(make([]float64, a.cfg.GoalDim()), goal)

	ac.Reset(1, 0)
	_, before := actorPreds(ac, state, meas, goal)
	samePreds(t, "packed actor before training", before, a.Predict(state, meas, goalExt))
	packs := ac.first.Pack()

	for i := 0; i < 3; i++ {
		a.TrainStep()
	}
	live := a.Predict(state, meas, goalExt)
	if packs {
		// Only the first layer is a copy; the rest already follow the master.
		_, stale := actorPreds(ac, state, meas, goal)
		differs := false
		for i := range live {
			for k := range live[i] {
				differs = differs || stale[i][k] != live[i][k]
			}
		}
		if !differs {
			t.Fatal("three training steps did not move the first layer's output: the guard below guards nothing")
		}
	}

	ac.Reset(2, 0)
	fresh := a.Actor()
	fresh.Reset(2, 0)
	gotA, got := actorPreds(ac, state, meas, goal)
	wantA, want := actorPreds(fresh, state, meas, goal)
	samePreds(t, "reset actor vs the agent", got, live)
	samePreds(t, "fresh actor vs the agent", want, live)
	if agentA := a.Act(state, meas, goal, a.cfg.Actions, false); gotA != agentA || wantA != agentA {
		t.Fatalf("reset actor picks %d, fresh actor %d, agent %d", gotA, wantA, agentA)
	}
}

// An actor that was never Reset has packed nothing and reads the weights
// themselves, as does one whose state module does not open with a Dense.
func TestActorWithoutResetRunsDense(t *testing.T) {
	a := snapshotTestAgent(t)
	a.eps = 0 // the actor inherits it: greedy without a Reset
	ac := a.Actor()
	rng := rand.New(rand.NewSource(6))
	state, meas, goal := randInputs(rng, a.cfg.StateDim, a.cfg.Measurements)
	goalExt := a.cfg.extendGoalInto(make([]float64, a.cfg.GoalDim()), goal)
	for round := 0; round < 2; round++ {
		_, got := actorPreds(ac, state, meas, goal)
		samePreds(t, "never-Reset actor follows the live weights", got, a.Predict(state, meas, goalExt))
		a.TrainStep()
	}

	cfg := a.cfg
	cfg.UseCNN, cfg.CNNKernel, cfg.CNNStride = true, 4, 2
	if cnn := New(cfg).Actor(); cnn.first != nil {
		t.Fatal("the CNN state module opens with a convolution; nothing to pack")
	}
}

// Clones made for inference carry no gradient storage: at the quick
// geometry's state width, what Agent.Actor, Model.Evaluator and Model.Decider
// allocate — the clones' params and layers and an actor's rng — stays below
// one weight vector, and so does what Agent.Model allocates beyond the packed
// copy of its first layer.
func TestInferenceClonesAllocateNoGradients(t *testing.T) {
	cfg := DefaultConfig(394, 2, 10)
	a := New(cfg)
	weights := 0
	for _, p := range a.params {
		weights += 8 * len(p.Value)
	}
	var m *Model
	if n, first := allocated(func() { m = a.Model() }), uint64(8*len(a.params[0].Value)); n >= uint64(weights)+first {
		t.Errorf("Model allocated %d bytes; one weight vector is %d, its first layer %d", n, weights, first)
	}
	var ac, ev *Actor
	var d *BatchDecider
	for name, f := range map[string]func(){
		"Actor":     func() { ac = a.Actor() },
		"Evaluator": func() { ev = m.Evaluator() },
		"Decider":   func() { d = m.Decider() },
	} {
		if n := allocated(f); n >= uint64(weights) {
			t.Errorf("%s allocated %d bytes; one weight vector is %d", name, n, weights)
		}
	}
	for _, net := range slices.Concat(ac.nets.all(), ev.nets.all(), d.nets.all(), m.nets.all()) {
		for _, p := range net.Params() {
			if p.Grad != nil {
				t.Fatalf("inference clone param %s has gradient storage", p.Name)
			}
		}
	}
}
