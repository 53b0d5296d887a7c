// Integration tests: end-to-end flows across packages, mirroring how a
// downstream user would assemble the library (trace IO -> workload
// transformation -> simulation -> metrics -> agent persistence).
package repro_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/rollout"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPipelineTraceToMetrics drives the whole stack: generate, persist,
// reload, transform, simulate under every built-in picker, and collect
// metrics — asserting cross-cutting invariants at each stage.
func TestPipelineTraceToMetrics(t *testing.T) {
	sys := workload.ThetaScaled(64)
	base := workload.GenerateBase(workload.GeneratorConfig{
		System: sys, Duration: 0.3 * 86400, MeanInterarrival: 180, Seed: 101,
	})
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], 102)
	s4, err := workload.ScenarioByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.Apply(base, pool, s4, sys, 103)

	// Round-trip through the on-disk trace format.
	dir := t.TempDir()
	path := filepath.Join(dir, "s4.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.WriteTrace(f, jobs, sys.Resources); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := job.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(jobs) {
		t.Fatalf("trace round trip lost jobs: %d vs %d", len(reloaded), len(jobs))
	}

	// Simulate under every picker; identical workloads, independent sims.
	pickers := map[string]sched.Picker{
		"fcfs":    sched.FCFS{},
		"tetris":  sched.Tetris{},
		"sjf":     sched.SJF{},
		"largest": sched.LargestFirst{},
		"ga":      experiments.NewGA(1),
	}
	for name, p := range pickers {
		s := sim.New(sys, sched.NewWindowPolicy(p, 10))
		if err := s.Load(job.CloneAll(reloaded)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := metrics.Collect(name, "S4", s, -1)
		if rep.Jobs != len(reloaded) {
			t.Fatalf("%s finished %d of %d jobs", name, rep.Jobs, len(reloaded))
		}
		if rep.AvgSlowdown < 1 || math.IsNaN(rep.AvgSlowdown) {
			t.Fatalf("%s slowdown %v", name, rep.AvgSlowdown)
		}
		for r, u := range rep.Utilization {
			if u < 0 || u > 1 {
				t.Fatalf("%s resource %d utilization %v", name, r, u)
			}
		}
	}
}

// TestPipelineSWFImport feeds an SWF-exported trace back through the
// Darshan assignment and a simulation — the real-log path a Theta operator
// would take.
func TestPipelineSWFImport(t *testing.T) {
	sys := workload.ThetaScaled(64)
	base := workload.GenerateBase(workload.GeneratorConfig{
		System: sys, Duration: 0.2 * 86400, MeanInterarrival: 200, Seed: 201,
	})
	var buf bytes.Buffer
	if err := job.WriteSWF(&buf, base, job.SWFOptions{ProcsPerNode: 1}); err != nil {
		t.Fatal(err)
	}
	imported, skipped, err := job.ReadSWF(&buf, job.SWFOptions{ProcsPerNode: 1, Resources: 2})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(imported) != len(base) {
		t.Fatalf("SWF round trip: %d jobs (%d skipped), want %d", len(imported), skipped, len(base))
	}
	workload.AssignDarshanBB(imported, sys.Capacities[1], 202)
	s := sim.New(sys, sched.NewWindowPolicy(sched.FCFS{}, 10))
	if err := s.Load(imported); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Finished()) != len(imported) {
		t.Fatal("SWF-imported workload did not complete")
	}
}

// TestPipelineAgentPersistence trains briefly, saves, reloads into a fresh
// agent, and verifies identical behaviour on the test workload.
func TestPipelineAgentPersistence(t *testing.T) {
	sys := workload.ThetaScaled(64)
	opts := core.Options{
		Window: 6,
		Seed:   5,
		Mutate: func(c *dfp.Config) {
			c.StateHidden = []int{32}
			c.StateOut = 16
			c.ModuleHidden = 8
			c.StreamHidden = 16
			c.Offsets = []int{1, 2, 4}
			c.TemporalWeights = []float64{0, 0.5, 1}
			c.EpsDecay = 0.6
		},
	}
	agent := core.New(sys, opts)

	base := workload.GenerateBase(workload.GeneratorConfig{
		System: sys, Duration: 0.15 * 86400, MeanInterarrival: 150, Seed: 301,
	})
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], 302)
	s2, _ := workload.ScenarioByName("S2")
	train := workload.Apply(base, pool, s2, sys, 303)
	learner := rollout.NewMRSchLearner(agent, core.TrainConfig{System: sys, StepsPerEpisode: 8})
	if _, err := rollout.Train(learner, rollout.Config{Workers: 1, Seed: 5},
		[]core.JobSet{{Kind: core.Sampled, Jobs: train}}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := core.New(sys, opts)
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}

	run := func(m *core.MRSch) []float64 {
		s := sim.New(sys, m.Model().Evaluator().Policy())
		if err := s.Load(job.CloneAll(train)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		starts := make([]float64, 0, len(s.Finished()))
		for _, j := range s.Finished() {
			starts = append(starts, j.Start)
		}
		return starts
	}
	a, b := run(agent), run(restored)
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at job %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPipelineThreeResourceEndToEnd exercises the §V-E path: power-extended
// system, power workload, power-aware metrics.
func TestPipelineThreeResourceEndToEnd(t *testing.T) {
	sys := workload.WithPower(workload.ThetaScaled(64))
	base := workload.GenerateBase(workload.GeneratorConfig{
		System: sys, Duration: 0.2 * 86400, MeanInterarrival: 200, Seed: 401,
	})
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], 402)
	psc := workload.PowerScenarios()[3] // S9
	jobs := workload.ApplyPower(base, pool, psc, sys, 403)

	s := sim.New(sys, sched.NewWindowPolicy(sched.Tetris{}, 10))
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rep := metrics.Collect("tetris", "S9", s, 2)
	if rep.AvgSysPowerKW <= 0 {
		t.Fatal("no power draw recorded")
	}
	if rep.AvgTotalPowerKW <= rep.AvgSysPowerKW {
		t.Fatal("idle power missing from total")
	}
	if rep.AvgSysPowerKW > float64(sys.Capacities[2]) {
		t.Fatalf("average draw %v exceeds the %d kW budget", rep.AvgSysPowerKW, sys.Capacities[2])
	}
}
