package dfp

import (
	"sync"
	"testing"
)

func snapshotTestAgent(t *testing.T) *Agent {
	t.Helper()
	cfg := DefaultConfig(12, 2, 4)
	cfg.StateHidden = []int{16}
	cfg.StateOut = 8
	cfg.ModuleHidden = 6
	cfg.StreamHidden = 8
	cfg.Offsets = []int{1, 2}
	cfg.TemporalWeights = []float64{0.5, 1}
	cfg.BatchSize = 8
	a := New(cfg)
	// Fill the replay buffer so TrainStep has something to regress on.
	state := make([]float64, cfg.StateDim)
	ac := a.Actor()
	for ep := 0; ep < 3; ep++ {
		ac.Reset(int64(ep), a.Epsilon())
		for step := 0; step < 12; step++ {
			state[0] = float64(step)
			ac.Act(state, []float64{0.3, 0.6}, []float64{0.5, 0.5}, cfg.Actions)
		}
		a.IngestTranscript(ac.TakeTranscript())
	}
	return a
}

// A snapshot actor's weights stay frozen while TrainStep mutates the live
// weights, and advance exactly when PublishWeights runs — the property that
// makes collection safe to overlap with training.
func TestSnapshotActorFrozenUntilPublish(t *testing.T) {
	a := snapshotTestAgent(t)
	ac := a.SnapshotActor()
	actorW := ac.nets.meas.Params()[0].Value
	liveW := a.nets.meas.Params()[0].Value
	if &actorW[0] == &liveW[0] {
		t.Fatal("snapshot actor aliases the live weights")
	}
	before := append([]float64(nil), liveW...)

	if loss := a.TrainStep(); loss < 0 {
		t.Fatal("TrainStep found empty replay")
	}
	changed := false
	for i := range liveW {
		if liveW[i] != before[i] {
			changed = true
		}
		if actorW[i] != before[i] {
			t.Fatalf("snapshot weight %d moved with training: %v vs frozen %v", i, actorW[i], before[i])
		}
	}
	if !changed {
		t.Fatal("TrainStep did not change the live weights (test is vacuous)")
	}

	a.PublishWeights()
	for i := range liveW {
		if actorW[i] != liveW[i] {
			t.Fatalf("snapshot weight %d = %v after publish, want live %v", i, actorW[i], liveW[i])
		}
	}
}

// Snapshot actors may run rollouts concurrently with TrainStep: disjoint
// buffers, no synchronization. Run under -race in CI.
func TestSnapshotActorConcurrentWithTraining(t *testing.T) {
	a := snapshotTestAgent(t)
	const actors = 3
	acs := make([]*Actor, actors)
	for i := range acs {
		acs[i] = a.SnapshotActor()
	}
	state := make([]float64, a.cfg.StateDim)
	var wg sync.WaitGroup
	for i, ac := range acs {
		wg.Add(1)
		go func(i int, ac *Actor) {
			defer wg.Done()
			ac.Reset(int64(i), 0) // greedy: every Act pays the full forward
			for step := 0; step < 50; step++ {
				ac.Act(state, []float64{0.4, 0.5}, []float64{0.5, 0.5}, a.cfg.Actions)
			}
		}(i, ac)
	}
	for k := 0; k < 10; k++ {
		a.TrainStep()
	}
	wg.Wait()
	// Joined: publishing here is the synchronization point the pipelined
	// harness uses between rounds.
	a.PublishWeights()
}
