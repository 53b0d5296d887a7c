package dfp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rollout"
)

// After a tiny-scale S4 training the replay keeps its states in at most 35 %
// of the words they take dense: the unit sections of MRSch's state lie in
// runs of identical pairs. The curriculum runs through the rollout harness
// itself, as experiments.Train lays it out, because Train releases the ring
// when the training ends.
func TestReplayKeepsStatesAsRuns(t *testing.T) {
	m, err := experiments.Prepare(experiments.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	sc := m.Scale
	agent := experiments.NewMRSchUntrained(sc, false)
	sets := experiments.Ordering{core.Sampled, core.Real, core.Synthetic}.Sets(m.CurriculumSets("S4"))
	learner := rollout.NewMRSchLearner(agent, core.TrainConfig{System: sc.System(), StepsPerEpisode: sc.StepsPerEpisode})
	if _, err := rollout.Train(learner, rollout.Config{Seed: sc.Seed + 7}, sets); err != nil {
		t.Fatal(err)
	}
	kept, dense := agent.Agent.ReplayStateWords()
	if dense == 0 {
		t.Fatal("the trained agent's replay is empty")
	}
	t.Logf("replay states: %d words kept for %d dense (%.1f %%)", kept, dense, 100*float64(kept)/float64(dense))
	if float64(kept) > 0.35*float64(dense) {
		t.Fatalf("replay states take %d words, more than 35 %% of %d dense", kept, dense)
	}
}
