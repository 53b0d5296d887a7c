package dfp_test

import (
	"testing"

	"repro/internal/experiments"
)

// After a tiny-scale S4 training the replay keeps its states in at most 35 %
// of the words they take dense: the unit sections of MRSch's state lie in
// runs of identical pairs.
func TestReplayKeepsStatesAsRuns(t *testing.T) {
	m, err := experiments.Prepare(experiments.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	agent, _, err := experiments.TrainMRSch(m, "S4", false)
	if err != nil {
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
