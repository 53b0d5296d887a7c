package dfp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// TrainStepReference is the sample-at-a-time training step: one bsz=1
// inference forward (forwardScratch) and one dense dueling backward per
// sample, in sample order, through nn's exact-order single-row backward. It
// is the arithmetic reference for the batched engine — the equivalence tests
// below assert TrainStep matches it to ≤1e-12 — and consumes the rng exactly
// like TrainStep.
func (a *Agent) TrainStepReference() float64 {
	if a.replay.len() == 0 {
		return -1
	}
	batch := a.cfg.BatchSize
	if batch > a.replay.len() {
		batch = a.replay.len()
	}
	pd := a.cfg.PredDim()
	total := 0.0
	for b := 0; b < batch; b++ {
		e := a.replay.sample(a.rng)
		preds := a.forwardScratch(e.State, e.Meas, e.Goal)
		loss, grad := nn.MaskedMSE(preds[e.Action], e.Target, e.Mask)
		total += loss
		grads := make([][]float64, a.cfg.Actions)
		zero := make([]float64, pd)
		for ai := range grads {
			if ai == e.Action {
				grads[ai] = grad
			} else {
				grads[ai] = zero
			}
		}
		a.backwardFromPredGrads(grads)
	}
	for _, p := range a.params {
		nn.Scale(p.Grad, 1/float64(batch))
	}
	if a.cfg.GradClip > 0 {
		nn.ClipGrads(a.params, a.cfg.GradClip)
	}
	a.opt.Step(a.params)
	a.trainSteps++
	return total / float64(batch)
}

// backwardFromPredGrads backpropagates gradients of the loss with respect to
// the per-action predictions through the dueling combine, both streams, the
// concatenation, and the three input modules, accumulating parameter
// gradients, after a forwardScratch of the same sample (the layers retain
// forward state). It is the dense reference backward, shared with the
// gradient checks in dfp_test.go; the training engine's sparse path produces
// the same gradients while only propagating the taken action's PredDim slice
// through the action stream.
func (a *Agent) backwardFromPredGrads(grads [][]float64) {
	pd := a.cfg.PredDim()
	n := a.cfg.Actions

	gradExp := make([]float64, pd)
	sumGrad := make([]float64, pd)
	for ai := 0; ai < n; ai++ {
		for k, g := range grads[ai] {
			gradExp[k] += g
			sumGrad[k] += g
		}
	}
	gradAct := make([]float64, n*pd)
	for ai := 0; ai < n; ai++ {
		for k, g := range grads[ai] {
			gradAct[ai*pd+k] = g - sumGrad[k]/float64(n)
		}
	}

	gJointExp := a.nets.exp.Backward(nil, gradExp, 1)
	gJointAct := a.nets.act.Backward(nil, gradAct, 1)
	gJoint := nn.Add(gJointExp, gJointAct)

	so := a.cfg.StateOut
	h := a.cfg.ModuleHidden
	a.nets.state.Backward(nil, gJoint[:so], 1)
	a.nets.meas.Backward(nil, gJoint[so:so+h], 1)
	a.nets.goal.Backward(nil, gJoint[so+h:], 1)
}

// fillReplay stores a deterministic, varied set of experiences in a's
// replay buffer (mixed actions, partially-masked targets).
func fillReplay(a *Agent, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := a.cfg
	pd := cfg.PredDim()
	for i := 0; i < count; i++ {
		state := make([]float64, cfg.StateDim)
		for j := range state {
			state[j] = rng.NormFloat64() * 0.4
		}
		meas := make([]float64, cfg.Measurements)
		for j := range meas {
			meas[j] = rng.Float64()
		}
		goal := make([]float64, cfg.Measurements)
		for j := range goal {
			goal[j] = rng.Float64()
		}
		target := make([]float64, pd)
		mask := make([]bool, pd)
		for j := range target {
			target[j] = rng.NormFloat64() * 0.2
			mask[j] = rng.Float64() < 0.8
		}
		a.replay.add(&Experience{
			State:  state,
			Meas:   meas,
			Goal:   a.ExtendGoal(goal),
			Action: rng.Intn(cfg.Actions),
			Target: target,
			Mask:   mask,
		})
	}
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

// compareAgents asserts every parameter of the two agents matches within
// rel.
func compareAgents(t *testing.T, x, y *Agent, rel float64, label string) {
	t.Helper()
	for i := range x.params {
		if d := maxRelDiff(x.params[i].Value, y.params[i].Value); d > rel {
			t.Fatalf("%s: param %s diverges by %g (tol %g)", label, x.params[i].Name, d, rel)
		}
	}
}

// TestTrainStepMatchesReference: the batched sparse engine must reproduce
// the scalar reference arithmetic (same samples, same rng draws) to within
// floating-point reassociation across multiple optimizer steps.
func TestTrainStepMatchesReference(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 1
	newEngine := New(cfg)
	reference := New(smallConfig())
	fillReplay(newEngine, 80, 5)
	fillReplay(reference, 80, 5)

	for step := 0; step < 25; step++ {
		ln := newEngine.TrainStep()
		lr := reference.TrainStepReference()
		if math.Abs(ln-lr) > 1e-10*math.Max(1, math.Abs(lr)) {
			t.Fatalf("step %d: loss %v (batched) vs %v (reference)", step, ln, lr)
		}
	}
	compareAgents(t, newEngine, reference, 1e-9, "batched-vs-reference")
}

// TestTrainStepWorkerCountEquivalence: sharding the minibatch across
// workers must not change the result beyond reduction-order float noise.
func TestTrainStepWorkerCountEquivalence(t *testing.T) {
	mk := func(workers int) *Agent {
		cfg := smallConfig()
		cfg.Workers = workers
		a := New(cfg)
		fillReplay(a, 64, 9)
		return a
	}
	single := mk(1)
	quad := mk(4)
	for step := 0; step < 25; step++ {
		l1 := single.TrainStep()
		l4 := quad.TrainStep()
		if math.Abs(l1-l4) > 1e-10*math.Max(1, math.Abs(l1)) {
			t.Fatalf("step %d: loss %v (1 worker) vs %v (4 workers)", step, l1, l4)
		}
	}
	compareAgents(t, single, quad, 1e-9, "workers-1-vs-4")
	if len(quad.workers) != 4 {
		t.Fatalf("expected 4 workers, built %d", len(quad.workers))
	}
}

// TestTrainStepDeterminism: a fixed Workers setting must be bitwise
// reproducible run to run.
func TestTrainStepDeterminism(t *testing.T) {
	mk := func() *Agent {
		cfg := smallConfig()
		cfg.Workers = 3
		a := New(cfg)
		fillReplay(a, 50, 13)
		return a
	}
	x, y := mk(), mk()
	for step := 0; step < 10; step++ {
		if lx, ly := x.TrainStep(), y.TrainStep(); lx != ly {
			t.Fatalf("step %d: losses differ bitwise: %v vs %v", step, lx, ly)
		}
	}
	for i := range x.params {
		for j := range x.params[i].Value {
			if x.params[i].Value[j] != y.params[i].Value[j] {
				t.Fatalf("param %s not bitwise deterministic", x.params[i].Name)
			}
		}
	}
}

// smallCNNConfig is smallConfig with the convolutional state module, on two
// workers.
func smallCNNConfig() Config {
	cfg := smallConfig()
	cfg.StateDim = 24
	cfg.UseCNN = true
	cfg.CNNChannels = 3
	cfg.CNNKernel = 4
	cfg.CNNStride = 2
	cfg.CNNPool = 2
	cfg.Workers = 2
	return cfg
}

// TestTrainStepCNNFallback: the CNN state module exercises the Conv1D /
// MaxPool1D batch kernels inside the engine.
func TestTrainStepCNNFallback(t *testing.T) {
	cfg := smallCNNConfig()
	batched := New(cfg)
	cfgRef := cfg
	cfgRef.Workers = 1
	reference := New(cfgRef)
	fillReplay(batched, 40, 21)
	fillReplay(reference, 40, 21)
	for step := 0; step < 10; step++ {
		lb := batched.TrainStep()
		lr := reference.TrainStepReference()
		if math.Abs(lb-lr) > 1e-10*math.Max(1, math.Abs(lr)) {
			t.Fatalf("step %d: CNN loss %v vs reference %v", step, lb, lr)
		}
	}
	compareAgents(t, batched, reference, 1e-9, "cnn-batched-vs-reference")
}

// TestActZeroAlloc: steady-state inference must not touch the heap — the
// acceptance target behind BenchmarkDecisionLatency (§V-F).
func TestActZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(64, 2, 10)
	a := New(cfg)
	state := make([]float64, 64)
	meas := []float64{0.4, 0.6}
	goal := []float64{0.7, 0.3}
	a.Act(state, meas, goal, 10, false) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		a.Act(state, meas, goal, 10, false)
	})
	if allocs != 0 {
		t.Fatalf("inference Act allocates %v times per call, want 0", allocs)
	}
}

// TestForwardDuelingRowsIndependentOfBatch: every prediction the one
// inference forward produces for a sample must be bitwise the same whether the
// sample runs alone (what Act and Predict do) or as row i of a batch (what
// DecideBatch does) — the value-level form of the serve byte-identity contract.
func TestForwardDuelingRowsIndependentOfBatch(t *testing.T) {
	a := New(smallConfig())
	cfg := &a.cfg
	rng := rand.New(rand.NewSource(6))
	const bsz = 7
	states := make([]float64, bsz*cfg.StateDim)
	for i := range states {
		states[i] = rng.NormFloat64()
	}
	meas := make([]float64, bsz*cfg.Measurements)
	goals := make([]float64, bsz*cfg.GoalDim())
	for i := 0; i < bsz; i++ {
		meas[2*i], meas[2*i+1] = rng.Float64(), rng.Float64()
		cfg.extendGoalInto(goals[i*cfg.GoalDim():(i+1)*cfg.GoalDim()], []float64{rng.Float64(), rng.Float64()})
	}
	var batchScr inferScratch
	batch := a.nets.forwardDueling(cfg, &batchScr, states, meas, goals, bsz)
	for i := 0; i < bsz; i++ {
		single := a.forwardScratch(
			states[i*cfg.StateDim:(i+1)*cfg.StateDim],
			meas[i*cfg.Measurements:(i+1)*cfg.Measurements],
			goals[i*cfg.GoalDim():(i+1)*cfg.GoalDim()])
		for ai, row := range single {
			for k, v := range row {
				if got := batch[i*cfg.Actions+ai][k]; got != v {
					t.Fatalf("sample %d action %d slot %d: batched %v != bsz=1 %v", i, ai, k, got, v)
				}
			}
		}
	}
}
