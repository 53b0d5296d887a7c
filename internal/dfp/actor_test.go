package dfp

import (
	"bytes"
	"math"
	"math/rand"
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
	cfg.Workers = 1
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

// Ingesting an actor transcript must produce the same replay contents and
// epsilon decay as the master recording the identical episode itself.
func TestIngestTranscriptMatchesEndEpisode(t *testing.T) {
	master := actorTestAgent(t)
	viaActor := actorTestAgent(t)

	// Drive both with the same decision sequence. Master records through
	// training-mode Act at eps=0 (deterministic, greedy); the actor records
	// the same inputs at eps=0. The viaActor master also runs training-mode
	// Acts (discarded below) so both agent rngs consume identically and the
	// subsequent TrainStep samples the same minibatch.
	master.eps = 0
	viaActor.eps = 0
	ac := viaActor.Actor()
	ac.Reset(1, 0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		state, meas, goal := randInputs(rng, master.cfg.StateDim, master.cfg.Measurements)
		master.Act(state, meas, goal, 5, true)
		viaActor.Act(state, meas, goal, 5, true)
		ac.Act(state, meas, goal, 5)
	}
	master.EndEpisode()
	viaActor.episode = nil // keep only the actor-collected copy
	viaActor.IngestTranscript(ac.TakeTranscript())

	if master.ReplaySize() != viaActor.ReplaySize() {
		t.Fatalf("replay sizes differ: %d vs %d", master.ReplaySize(), viaActor.ReplaySize())
	}
	for i := 0; i < master.ReplaySize(); i++ {
		em, ea := master.replay.buf[i], viaActor.replay.buf[i]
		if em.Action != ea.Action {
			t.Fatalf("experience %d action: %d vs %d", i, em.Action, ea.Action)
		}
		for k := range em.Target {
			if em.Target[k] != ea.Target[k] || em.Mask[k] != ea.Mask[k] {
				t.Fatalf("experience %d target/mask mismatch at %d", i, k)
			}
		}
	}

	// Same replay + same rng state => identical training step and weights.
	lm := master.TrainStep()
	la := viaActor.TrainStep()
	if lm != la {
		t.Fatalf("train losses differ: %v vs %v", lm, la)
	}
	var bm, ba bytes.Buffer
	if err := master.Save(&bm); err != nil {
		t.Fatal(err)
	}
	if err := viaActor.Save(&ba); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bm.Bytes(), ba.Bytes()) {
		t.Fatal("weights diverged after identical episode + train step")
	}
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

// An actor transcript collected concurrently-safely must leave the master's
// own episode recording untouched.
func TestActorRecordingIsIndependent(t *testing.T) {
	a := actorTestAgent(t)
	ac := a.Actor()
	ac.Reset(5, 1) // eps=1: pure random exploration, no forward pass
	rng := rand.New(rand.NewSource(3))
	state, meas, goal := randInputs(rng, a.cfg.StateDim, a.cfg.Measurements)
	for i := 0; i < 6; i++ {
		ac.Act(state, meas, goal, 5)
	}
	if len(a.episode) != 0 {
		t.Fatalf("actor recording leaked %d steps into the master", len(a.episode))
	}
	if tr := ac.TakeTranscript(); len(tr.steps) != 6 {
		t.Fatalf("transcript has %d steps, want 6", len(tr.steps))
	}
	if len(ac.steps) != 0 {
		t.Fatal("TakeTranscript did not clear the actor")
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
