package dfp

import (
	"math/rand"
	"testing"
)

// randomInputs draws n random (state, meas, goal, valid) rows for an agent.
func randomInputs(cfg *Config, rng *rand.Rand, n int) (states, meas, goals [][]float64, valid []int) {
	randVec := func(d int) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for i := 0; i < n; i++ {
		states = append(states, randVec(cfg.StateDim))
		meas = append(meas, randVec(cfg.Measurements))
		g := make([]float64, cfg.Measurements)
		total := 0.0
		for k := range g {
			g[k] = rng.Float64()
			total += g[k]
		}
		for k := range g {
			g[k] /= total
		}
		goals = append(goals, g)
		valid = append(valid, 1+rng.Intn(cfg.Actions))
	}
	return
}

// TestDecideBatchMatchesActAtEveryBatchSize is the bitwise serve-equivalence
// property at the dfp layer: for random inputs, DecideBatch over batch sizes
// {1, 4, max} selects exactly the action the single-sample greedy Act
// selects, row for row — the batch a request lands in never changes its
// decision.
func TestDecideBatchMatchesActAtEveryBatchSize(t *testing.T) {
	cfg := DefaultConfig(24, 2, 6)
	cfg.Seed = 71
	a := New(cfg)
	rng := rand.New(rand.NewSource(9))
	const total = 48
	states, meas, goals, valid := randomInputs(&a.cfg, rng, total)

	// Single-sample greedy reference.
	want := make([]int, total)
	for i := 0; i < total; i++ {
		want[i] = a.Act(states[i], meas[i], goals[i], valid[i], false)
	}

	d := a.Model().Decider()
	for _, bs := range []int{1, 4, total} {
		got := make([]int, 0, total)
		for lo := 0; lo < total; lo += bs {
			hi := lo + bs
			if hi > total {
				hi = total
			}
			got = append(got, d.DecideBatch(states[lo:hi], meas[lo:hi], goals[lo:hi], valid[lo:hi], nil)...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch size %d: row %d decided %d, single-sample path decided %d", bs, i, got[i], want[i])
			}
		}
	}
}

// TestDeciderOfANewModelFollowsTraining pins what a model of a training
// agent is: its weights are the agent's as they are when it is built, with no
// copy made, so a model built after the training moved the greedy policy
// decides like the trained Act at a batch of one (the packed first layer) and
// at a whole batch (the dense one).
func TestDeciderOfANewModelFollowsTraining(t *testing.T) {
	cfg := DefaultConfig(24, 2, 6)
	cfg.Seed = 5
	cfg.BatchSize = 8
	a := New(cfg)
	rng := rand.New(rand.NewSource(11))
	states, meas, goals, valid := randomInputs(&a.cfg, rng, 32)

	before := append([]int(nil), a.Model().Decider().DecideBatch(states, meas, goals, valid, nil)...)

	// Train until the greedy policy moves on at least one row (bounded; the
	// random net at this scale shifts within a few steps).
	recordEpisode(a, 12, 40)
	changed := false
	for step := 0; step < 200 && !changed; step++ {
		a.TrainStep()
		for i := range states {
			if a.Act(states[i], meas[i], goals[i], valid[i], false) != before[i] {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Skip("training never moved the greedy policy on these rows")
	}

	d := a.Model().Decider()
	whole := d.DecideBatch(states, meas, goals, valid, nil)
	for i := range states {
		want := a.Act(states[i], meas[i], goals[i], valid[i], false)
		one := d.DecideBatch(states[i:i+1], meas[i:i+1], goals[i:i+1], valid[i:i+1], nil)[0]
		if whole[i] != want || one != want {
			t.Fatalf("row %d after training: the new model decides %d in the batch and %d alone, live Act %d", i, whole[i], one, want)
		}
	}
}
