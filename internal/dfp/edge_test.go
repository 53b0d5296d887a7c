package dfp

import (
	"math"
	"testing"
)

func TestActClampsInvalidValidCount(t *testing.T) {
	a := New(smallConfig())
	state := make([]float64, 12)
	meas := []float64{0.5, 0.5}
	goal := []float64{0.5, 0.5}
	// valid <= 0 and valid > Actions must both clamp to the full range.
	for _, valid := range []int{0, -3, 99} {
		got := a.Act(state, meas, goal, valid, false)
		if got < 0 || got >= a.cfg.Actions {
			t.Fatalf("valid=%d produced action %d", valid, got)
		}
	}
}

func TestExtendGoalRejectsWrongArity(t *testing.T) {
	a := New(smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-arity goal accepted")
		}
	}()
	a.ExtendGoal([]float64{1})
}

func TestIngestEmptyTranscript(t *testing.T) {
	a := New(smallConfig())
	a.IngestTranscript(a.Actor().TakeTranscript()) // an actor that never acted; must not panic
	if a.ReplaySize() != 0 {
		t.Fatal("phantom experiences")
	}
}

func TestShortEpisodeFullyMasked(t *testing.T) {
	// A single-step episode has no future at any offset: nothing stored.
	a := New(smallConfig())
	ac := a.Actor()
	ac.Reset(1, 0)
	ac.Act(make([]float64, 12), []float64{0.1, 0.2}, []float64{0.5, 0.5}, 3)
	a.IngestTranscript(ac.TakeTranscript())
	if a.ReplaySize() != 0 {
		t.Fatalf("replay has %d from a 1-step episode", a.ReplaySize())
	}
}

func TestScoreIsGoalLinear(t *testing.T) {
	// Doubling the goal doubles every action's score (dot-product scoring).
	a := New(smallConfig())
	state := make([]float64, 12)
	meas := []float64{0.4, 0.6}
	g1 := a.ExtendGoal([]float64{0.3, 0.7})
	g2 := a.ExtendGoal([]float64{0.6, 1.4})
	preds := a.Predict(state, meas, g1)
	s1 := a.Score(preds, g1)
	s2 := a.Score(preds, g2)
	for i := range s1 {
		if math.Abs(s2[i]-2*s1[i]) > 1e-9 {
			t.Fatalf("score not linear in goal: %v vs %v", s1[i], s2[i])
		}
	}
}

func TestNumParamsPositiveAndStable(t *testing.T) {
	a := New(smallConfig())
	n := a.NumParams()
	if n <= 0 {
		t.Fatal("no parameters")
	}
	a.TrainStep() // no-op on empty replay
	if a.NumParams() != n {
		t.Fatal("parameter count changed")
	}
}
