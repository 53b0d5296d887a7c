package core

import (
	"math/rand"
	"testing"

	"repro/internal/job"
)

func randomJobs(seed int64, n int) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= n; i++ {
		clk += float64(rng.Intn(40))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(300)+10), rng.Intn(12)+1, rng.Intn(7)))
	}
	return jobs
}

func TestValidateScoresGreedily(t *testing.T) {
	m := New(sys(), tinyOptions(31))
	vm, err := Validate(m.Model(), sys(), randomJobs(1, 25))
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Utilization) != 2 {
		t.Fatalf("utilization arity %d", len(vm.Utilization))
	}
	if vm.Score <= 0 || vm.Score > 1 {
		t.Fatalf("score = %v", vm.Score)
	}
	if vm.AvgSlowdown < 1 {
		t.Fatalf("slowdown = %v", vm.AvgSlowdown)
	}
	// Validation must not record experience.
	if m.Agent.ReplaySize() != 0 {
		t.Fatal("validation added replay experiences")
	}
}

func TestTrainWithSelectionKeepsBestWeights(t *testing.T) {
	m := New(sys(), tinyOptions(37))
	valid := randomJobs(2, 20)
	var sets []JobSet
	for i := 0; i < 4; i++ {
		sets = append(sets, JobSet{Kind: Sampled, Jobs: randomJobs(int64(10+i), 20)})
	}
	sel := NewSelection(m, sys(), valid, 1)
	results, err := trainSets(m, TrainConfig{System: sys(), StepsPerEpisode: 4}, sets, sel)
	if err != nil {
		t.Fatal(err)
	}
	best := sel.Finish()
	if len(results) != 4 {
		t.Fatalf("%d episodes", len(results))
	}
	if best.Score <= 0 {
		t.Fatalf("best score %v", best.Score)
	}
	// The restored weights must reproduce the best validation score.
	vm, err := Validate(m.Model(), sys(), valid)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Score < best.Score-1e-9 {
		t.Fatalf("restored score %v < best %v", vm.Score, best.Score)
	}
}

func TestTrainWithSelectionNoValidationSet(t *testing.T) {
	m := New(sys(), tinyOptions(41))
	sets := []JobSet{{Kind: Sampled, Jobs: randomJobs(3, 15)}}
	sel := NewSelection(m, sys(), nil, 0)
	results, err := trainSets(m, TrainConfig{System: sys(), StepsPerEpisode: 2}, sets, sel)
	if err != nil {
		t.Fatal(err)
	}
	best := sel.Finish()
	if len(results) != 1 || best.Score != 0 {
		t.Fatalf("results=%d best=%v", len(results), best)
	}
}
