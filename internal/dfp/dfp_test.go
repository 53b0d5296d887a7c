package dfp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
)

func smallConfig() Config {
	cfg := DefaultConfig(12, 2, 3)
	cfg.Offsets = []int{1, 2}
	cfg.TemporalWeights = []float64{0.5, 1}
	cfg.StateHidden = []int{8}
	cfg.StateOut = 6
	cfg.ModuleHidden = 5
	cfg.StreamHidden = 7
	cfg.Seed = 3
	return cfg
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []struct {
		mut  func(*Config)
		want string // New's panic names the fault
	}{
		{func(c *Config) { c.StateDim = 0 }, "dfp: dims must be positive"},
		{func(c *Config) { c.Offsets = nil }, "dfp: no temporal offsets"},
		{func(c *Config) { c.Offsets = []int{2, 1} }, "dfp: offsets must be strictly increasing"},
		{func(c *Config) { c.Offsets = []int{0, 1} }, "dfp: offsets must be strictly increasing"},
		{func(c *Config) { c.TemporalWeights = []float64{1} }, "dfp: 1 temporal weights"},
		// A state module of the wrong width on either side is New's to
		// refuse, not the first forward's.
		{func(c *Config) { c.StateModule = nn.NewDense(c.StateDim+1, c.StateOut, nn.HeInit, rng) }, "dfp: custom state module rejects StateDim"},
		{func(c *Config) { c.StateModule = nn.NewDense(c.StateDim, c.StateOut+1, nn.HeInit, rng) }, "dfp: custom state module outputs"},
	}
	for i, tc := range bad {
		cfg := smallConfig()
		tc.mut(&cfg)
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, tc.want) {
					t.Errorf("case %d: New panicked with %q, want %q", i, got, tc.want)
				}
			}()
			New(cfg)
		}()
	}
}

func TestForwardShapes(t *testing.T) {
	a := New(smallConfig())
	state := make([]float64, 12)
	meas := []float64{0.5, 0.2}
	goalExt := a.ExtendGoal([]float64{0.7, 0.3})
	preds := a.forwardScratch(state, meas, goalExt)
	if len(preds) != 3 {
		t.Fatalf("preds for %d actions", len(preds))
	}
	for _, p := range preds {
		if len(p) != a.cfg.PredDim() {
			t.Fatalf("pred dim %d, want %d", len(p), a.cfg.PredDim())
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite prediction")
			}
		}
	}
}

func TestExtendGoal(t *testing.T) {
	a := New(smallConfig())
	got := a.ExtendGoal([]float64{0.6, 0.4})
	want := []float64{0.3, 0.2, 0.6, 0.4} // offsets weights 0.5 and 1
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExtendGoal = %v, want %v", got, want)
		}
	}
}

// The decisive test for the hand-wired topology: analytic gradients through
// dueling combine, both streams, concat, and all three modules must match
// finite differences.
func TestFullTopologyGradCheck(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	rng := rand.New(rand.NewSource(17))
	state := make([]float64, cfg.StateDim)
	for i := range state {
		state[i] = rng.NormFloat64() * 0.3
	}
	meas := []float64{0.4, 0.6}
	goalExt := a.ExtendGoal([]float64{0.8, 0.2})
	action := 1
	target := make([]float64, cfg.PredDim())
	for i := range target {
		target[i] = rng.NormFloat64() * 0.1
	}
	mask := make([]bool, cfg.PredDim())
	for i := range mask {
		mask[i] = i%2 == 0 // exercise masking in the gradient path too
	}

	loss := func() float64 {
		preds := a.forwardScratch(state, meas, goalExt)
		l, _ := nn.MaskedMSE(preds[action], target, mask)
		return l
	}
	backward := func() {
		preds := a.forwardScratch(state, meas, goalExt)
		_, grad := nn.MaskedMSE(preds[action], target, mask)
		grads := make([][]float64, cfg.Actions)
		zero := make([]float64, cfg.PredDim())
		for ai := range grads {
			if ai == action {
				grads[ai] = grad
			} else {
				grads[ai] = zero
			}
		}
		a.backwardFromPredGrads(grads)
	}
	if worst := nn.GradCheck(a.params, loss, backward, 1e-5, 40); worst > 1e-3 {
		t.Fatalf("DFP topology gradient check failed: max rel err %v", worst)
	}
}

func TestCNNVariantGradCheck(t *testing.T) {
	cfg := smallConfig()
	cfg.StateDim = 24
	cfg.UseCNN = true
	cfg.CNNChannels = 3
	cfg.CNNKernel = 4
	cfg.CNNStride = 2
	cfg.CNNPool = 2
	a := New(cfg)
	rng := rand.New(rand.NewSource(4))
	state := make([]float64, cfg.StateDim)
	for i := range state {
		state[i] = rng.NormFloat64() * 0.3
	}
	meas := []float64{0.4, 0.6}
	goalExt := a.ExtendGoal([]float64{0.5, 0.5})
	target := make([]float64, cfg.PredDim())
	mask := make([]bool, cfg.PredDim())
	for i := range mask {
		mask[i] = true
	}
	loss := func() float64 {
		preds := a.forwardScratch(state, meas, goalExt)
		l, _ := nn.MaskedMSE(preds[0], target, mask)
		return l
	}
	backward := func() {
		preds := a.forwardScratch(state, meas, goalExt)
		_, grad := nn.MaskedMSE(preds[0], target, mask)
		grads := make([][]float64, cfg.Actions)
		zero := make([]float64, cfg.PredDim())
		for ai := range grads {
			if ai == 0 {
				grads[ai] = grad
			} else {
				grads[ai] = zero
			}
		}
		a.backwardFromPredGrads(grads)
	}
	if worst := nn.GradCheck(a.params, loss, backward, 1e-5, 30); worst > 1e-3 {
		t.Fatalf("CNN DFP gradient check failed: %v", worst)
	}
}

func TestActGreedyPicksBestScore(t *testing.T) {
	a := New(smallConfig())
	state := make([]float64, 12)
	meas := []float64{0.5, 0.5}
	goal := []float64{0.5, 0.5}
	goalExt := a.ExtendGoal(goal)
	preds := a.Predict(state, meas, goalExt)
	scores := a.Score(preds, goalExt)
	want := nn.ArgMax(scores)
	if got := a.Act(state, meas, goal, 3, false); got != want {
		t.Fatalf("Act = %d, argmax score = %d", got, want)
	}
}

// Exploring or not, an actor picks inside the valid prefix.
func TestActRespectsValidPrefix(t *testing.T) {
	a := New(smallConfig())
	state := make([]float64, 12)
	meas := []float64{0.5, 0.5}
	goal := []float64{0.5, 0.5}
	ac := a.Actor()
	for _, eps := range []float64{1, 0} {
		ac.Reset(1, eps)
		for trial := 0; trial < 50; trial++ {
			if got := ac.Act(state, meas, goal, 1); got != 0 {
				t.Fatalf("eps %g: Act with valid=1 returned %d", eps, got)
			}
		}
	}
}

// The agent acts greedily and records nothing: asked to train, it panics and
// names the actor, where episodes are recorded.
func TestActTrainPanicsNamingActor(t *testing.T) {
	a := New(smallConfig())
	defer func() {
		if got := fmt.Sprint(recover()); !strings.Contains(got, "Agent.Actor") {
			t.Fatalf("Act(…, true) panicked with %q, want it to name Agent.Actor", got)
		}
	}()
	a.Act(make([]float64, 12), []float64{0.5, 0.5}, []float64{0.5, 0.5}, 3, true)
}

func TestEpisodeRecordingAndTargets(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	state := make([]float64, cfg.StateDim)
	goal := []float64{0.5, 0.5}
	// Deterministic measurement sequence.
	seq := [][]float64{{0, 0}, {0.1, 0.2}, {0.3, 0.1}, {0.6, 0.4}}
	ac := a.Actor()
	ac.Reset(1, 0) // greedy: no randomness in recording
	for _, m := range seq {
		ac.Act(state, m, goal, cfg.Actions)
	}
	tr := ac.TakeTranscript()
	if len(tr.steps) != 4 {
		t.Fatalf("episode length %d", len(tr.steps))
	}
	a.IngestTranscript(tr)
	// Steps 0,1,2 have at least offset-1 targets; step 3 has none.
	if got := a.ReplaySize(); got != 3 {
		t.Fatalf("replay size %d, want 3", got)
	}
	// Inspect the first stored experience: offsets {1,2}, M=2.
	e := a.replay.buf[0]
	// target for offset 1 = seq[1]-seq[0] = {0.1,0.2}; offset 2 = seq[2]-seq[0] = {0.3,0.1}
	want := []float64{0.1, 0.2, 0.3, 0.1}
	for i := range want {
		if math.Abs(e.Target[i]-want[i]) > 1e-12 || !e.Mask[i] {
			t.Fatalf("experience target = %v mask = %v, want %v", e.Target, e.Mask, want)
		}
	}
	// Second experience (t=1): offset 2 would need t=3 -> valid; t=2 offset2 -> t=4 invalid.
	e2 := a.replay.buf[2] // t=2
	if e2.Mask[2] || e2.Mask[3] {
		t.Fatalf("t=2 offset-2 slots must be masked, mask=%v", e2.Mask)
	}
	if !e2.Mask[0] || !e2.Mask[1] {
		t.Fatalf("t=2 offset-1 slots must be valid, mask=%v", e2.Mask)
	}
}

func TestEpsilonDecay(t *testing.T) {
	cfg := smallConfig()
	cfg.EpsStart = 1.0
	cfg.EpsDecay = 0.5
	cfg.EpsMin = 0.2
	a := New(cfg)
	a.IngestTranscript(&Transcript{})
	if math.Abs(a.Epsilon()-0.5) > 1e-12 {
		t.Fatalf("eps after 1 episode = %v", a.Epsilon())
	}
	for i := 0; i < 10; i++ {
		a.IngestTranscript(&Transcript{})
	}
	if a.Epsilon() != 0.2 {
		t.Fatalf("eps floor = %v, want 0.2", a.Epsilon())
	}
}

// A synthetic environment where action k deterministically adds drift[k] to
// the measurements. After training, the agent's greedy action under a goal
// must be the action whose drift scores highest for that goal — and the
// choice must flip when the goal flips. This is the essence of DFP's
// goal-switching claim (§II-B).
func TestAgentLearnsGoalDependentPolicy(t *testing.T) {
	cfg := smallConfig()
	cfg.StateDim = 4
	cfg.LR = 3e-3
	cfg.EpsStart = 1.0
	cfg.EpsDecay = 0.97
	cfg.Seed = 11
	a := New(cfg)

	drift := [][]float64{
		{0.08, 0.0},  // action 0 helps measurement 0
		{0.0, 0.08},  // action 1 helps measurement 1
		{0.02, 0.02}, // action 2 is mediocre for both
	}
	state := []float64{0.1, 0.2, 0.3, 0.4}
	rng := rand.New(rand.NewSource(7))
	goals := [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}}

	ac := a.Actor()
	for ep := 0; ep < 60; ep++ {
		m := []float64{0.2, 0.2}
		goal := goals[ep%len(goals)]
		ac.Reset(int64(ep), a.Epsilon())
		for step := 0; step < 24; step++ {
			act := ac.Act(state, m, goal, cfg.Actions)
			next := make([]float64, 2)
			for i := range next {
				next[i] = m[i] + drift[act][i] + rng.NormFloat64()*0.001
			}
			m = next
		}
		a.IngestTranscript(ac.TakeTranscript())
		for k := 0; k < 8; k++ {
			a.TrainStep()
		}
	}

	m := []float64{0.2, 0.2}
	if got := a.Act(state, m, []float64{1, 0}, cfg.Actions, false); got != 0 {
		t.Fatalf("goal (1,0): picked action %d, want 0", got)
	}
	if got := a.Act(state, m, []float64{0, 1}, cfg.Actions, false); got != 1 {
		t.Fatalf("goal (0,1): picked action %d, want 1", got)
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 21
	cfg.LR = 1e-2
	a := New(cfg)
	// Fill replay with a fixed mapping: constant inputs, constant target.
	target := []float64{0.3, -0.2, 0.1, 0.4}
	mask := []bool{true, true, true, true}
	for i := 0; i < 64; i++ {
		a.replay.add(&Experience{
			State:  appendRuns(nil, make([]float64, cfg.StateDim)),
			Meas:   []float64{0.5, 0.5},
			Goal:   a.ExtendGoal([]float64{0.5, 0.5}),
			Action: i % cfg.Actions,
			Target: target,
			Mask:   mask,
		})
	}
	first := a.TrainStep()
	var last float64
	for i := 0; i < 150; i++ {
		last = a.TrainStep()
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
	if last > first*0.2 {
		t.Fatalf("loss barely decreased: first %v, last %v", first, last)
	}
}

func TestTrainStepEmptyReplay(t *testing.T) {
	a := New(smallConfig())
	if got := a.TrainStep(); got != -1 {
		t.Fatalf("TrainStep on empty replay = %v, want -1", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	state := make([]float64, cfg.StateDim)
	meas := []float64{0.4, 0.6}
	goalExt := a.ExtendGoal([]float64{0.5, 0.5})
	want := a.Predict(state, meas, goalExt)

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 999 // different init; weights must come from the file
	b := New(cfg2)
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := b.Predict(state, meas, goalExt)
	for ai := range want {
		for k := range want[ai] {
			if math.Abs(got[ai][k]-want[ai][k]) > 1e-15 {
				t.Fatal("restored agent predicts differently")
			}
		}
	}
}

func TestReplayRing(t *testing.T) {
	r := newReplay(3)
	for i := 0; i < 5; i++ {
		r.add(&Experience{Action: i})
	}
	if r.len() != 3 {
		t.Fatalf("replay len = %d, want 3", r.len())
	}
	// Oldest entries (0,1) must have been evicted.
	for _, e := range r.buf {
		if e.Action < 2 {
			t.Fatalf("stale experience %d retained", e.Action)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if e := r.sample(rng); e == nil {
			t.Fatal("sample returned nil")
		}
	}
}

func TestPaperScaleConfigDims(t *testing.T) {
	cfg := PaperScaleConfig(11410, 2, 10)
	if cfg.StateHidden[0] != 4000 || cfg.StateHidden[1] != 1000 || cfg.StateOut != 512 {
		t.Fatalf("paper-scale stack = %v out %d", cfg.StateHidden, cfg.StateOut)
	}
	if cfg.ModuleHidden != 128 {
		t.Fatalf("module width = %d", cfg.ModuleHidden)
	}
}
