package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// One fixed FCFS trace on an overloaded system, so most rounds reserve and
// backfill: New + Load + Run may allocate for set-up and for slices that
// grow, not per event or per round. The PickContext, the usage vector, the
// backfill's spare-capacity vector, the events and the cluster's allocations
// all live in reused storage; one allocation per round would show here as
// two per job.
func TestFCFSAllocationsPerJob(t *testing.T) {
	const jobs, runs = 800, 5
	sys := cluster.Config{Name: "alloc", Resources: []string{"nodes", "bb"}, Capacities: []int{64, 32}}
	rng := rand.New(rand.NewSource(16))
	trace := make([]*job.Job, jobs)
	at := 0.0
	for i := range trace {
		at += rng.ExpFloat64() * 40
		run := 60 + rng.Float64()*3000
		trace[i] = &job.Job{ID: i, Submit: at, Runtime: run, Walltime: run * (1 + rng.Float64()),
			Demand: []int{1 + rng.Intn(32), rng.Intn(16)}}
	}
	clones := make([][]*job.Job, runs+1) // AllocsPerRun warms up once
	for i := range clones {
		clones[i] = job.CloneAll(trace)
	}
	next, decisions := 0, 0
	perRun := testing.AllocsPerRun(runs, func() {
		s := sim.New(sys, sched.NewWindowPolicy(sched.FCFS{}, 10))
		if err := s.Load(clones[next]); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		next++
		decisions = s.Decisions
	})
	t.Logf("%.0f allocations per run: %.2f per job, %d scheduling rounds", perRun, perRun/jobs, decisions)
	if perJob := perRun / jobs; perJob > 1 {
		t.Fatalf("%.2f allocations per job, want <= 1", perJob)
	}
}
