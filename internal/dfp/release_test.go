package dfp_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// experiments.Train, the one training entry point, leaves the trained agent
// nothing only training reads: no step worker, no gradient on any of the
// agent's own parameters, an empty replay ring and an optimizer without
// moments. That training happened shows in the episodes' losses, each the
// mean of the episode's gradient steps, not in the ring.
func TestTrainReleasesTrainingState(t *testing.T) {
	m, err := experiments.Prepare(experiments.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	agent, episodes, err := experiments.TrainMRSch(m, "S4", false)
	if err != nil {
		t.Fatal(err)
	}
	stepped := 0
	for _, ep := range episodes {
		if ep.Loss >= 0 {
			stepped++
		}
	}
	if stepped == 0 {
		t.Fatalf("none of %d episodes took a gradient step", len(episodes))
	}
	a := agent.Agent
	if workers, grads := a.TrainScratch(); workers != 0 || grads != 0 {
		t.Fatalf("after training the agent keeps %d step workers and %d parameter gradients, want none", workers, grads)
	}
	if n := a.ReplaySize(); n != 0 {
		t.Fatalf("after training the agent keeps %d experiences, want none", n)
	}
	if !a.OptimizerFresh() {
		t.Fatal("after training the agent's optimizer keeps its moments or step count")
	}
}

// A quick-scale S4 training leaves behind at most twice its saved model file
// on the heap: the weights (one file), the replay ring's emptied slots
// (0.16 MB of pointers) and a little inference scratch, about 1.3 files.
// Keeping the ring's experiences (about 3.7 files) or the Adam moments (two)
// goes over: with both kept it is about 7.5.
func TestTrainedAgentRetainsUnderTwoFiles(t *testing.T) {
	m, err := experiments.Prepare(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	agent, _, err := experiments.TrainMRSch(m, "S4", false)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := agent.Save(&file); err != nil {
		t.Fatal(err)
	}
	held := liveHeap()
	runtime.KeepAlive(agent)
	agent = nil
	retained := int64(held) - int64(liveHeap())
	runtime.KeepAlive(m)
	t.Logf("a trained agent retains %d bytes, %.2f times its %d-byte model file", retained, float64(retained)/float64(file.Len()), file.Len())
	if bound := 2 * int64(file.Len()); retained > bound {
		t.Fatalf("a trained agent retains %d bytes (%.2fx its model file), want at most %d", retained, float64(retained)/float64(file.Len()), bound)
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
