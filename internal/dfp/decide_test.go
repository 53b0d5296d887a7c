package dfp

import (
	"bytes"
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

// sparseInputs is randomInputs with states laid out the way the encoder lays
// them out — a few dense job slots, then a (0, time-to-free) pair per busy
// unit and a (1, 0) pair per free one — each at its own busy level and with
// some 8-element runs zeroed, so a batch holds chunks that are zero in some
// of its rows and not in others.
func sparseInputs(cfg *Config, rng *rand.Rand, n int) (states, meas, goals [][]float64, valid []int) {
	states, meas, goals, valid = randomInputs(cfg, rng, n)
	for _, x := range states {
		clear(x)
		slots := min(len(x), 8)
		for i := 0; i < slots; i++ {
			x[i] = rng.Float64()
		}
		units := (len(x) - slots) / 2
		busy := int(rng.Float64() * float64(units))
		for u := 0; u < units; u++ {
			if u < busy {
				x[slots+2*u+1] = 48 * rng.Float64()
			} else {
				x[slots+2*u] = 1
			}
		}
		for g := 0; g < len(x); g += 8 {
			if rng.Intn(4) == 0 {
				clear(x[g:min(g+8, len(x))])
			}
		}
	}
	return
}

// A model's batched decisions are its agent's lone Act row by row at every
// batch size from 1 to 16, on a model the agent built (whose first layer
// packs a copy of the agent's) and on one loaded from the agent's file (whose
// first layer is packed-only): the batch runs the packed first layer at every
// size, over the chunks any of its rows needs.
func TestDecideBatchOfEveryModelMatchesAct(t *testing.T) {
	cfg := quickConfig()
	cfg.Seed = 23
	a := New(cfg)
	recordEpisode(a, 4, 40)
	for i := 0; i < 3; i++ {
		a.TrainStep()
	}
	var file bytes.Buffer
	if err := a.Model().Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(cfg, bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	states, meas, goals, valid := sparseInputs(&cfg, rand.New(rand.NewSource(24)), total)
	want := make([]int, total)
	for i := range want {
		want[i] = a.Act(states[i], meas[i], goals[i], valid[i], false)
	}
	for name, m := range map[string]*Model{"agent": a.Model(), "loaded": loaded} {
		d := m.Decider()
		for bs := 1; bs <= 16; bs++ {
			for lo := 0; lo+bs <= total; lo += bs {
				hi := lo + bs
				got := d.DecideBatch(states[lo:hi], meas[lo:hi], goals[lo:hi], valid[lo:hi], nil)
				for i, g := range got {
					if g != want[lo+i] {
						t.Fatalf("%s model, batch %d: row %d decided %d, the agent's Act %d", name, bs, lo+i, g, want[lo+i])
					}
				}
			}
		}
	}
}

// TestDeciderOfANewModelFollowsTraining pins what a model of a training
// agent is: its weights are the agent's as they are when it is built, with no
// copy made, so a model built after the training moved the greedy policy
// decides like the trained Act at a batch of one and at a whole batch (both
// through the packed first layer).
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
