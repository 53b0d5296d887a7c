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
	next, rounds := 0, 0
	perRun := testing.AllocsPerRun(runs, func() {
		wp := sched.NewWindowPolicy(sched.FCFS{}, 10)
		rounds = 0
		s := sim.New(sys, sim.PolicyFunc(func(s *sim.Simulator) {
			rounds++
			wp.OnSchedule(s)
		}))
		if err := s.Load(clones[next]); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocations per run: %.2f per job, %d scheduling rounds", perRun, perRun/jobs, rounds)
	if perJob := perRun / jobs; perJob > 1 {
		t.Fatalf("%.2f allocations per job, want <= 1", perJob)
	}
}

// Loading a trace whose IDs ascend — what the generators, the SWF reader and
// job.CloneAll hand over — grows the arrival list once and builds no ID map:
// one allocation for any number of jobs (two under the race detector). A
// map cell per ID showed as 6 % of an FCFS cell.
func TestLoadOfAscendingIDsAllocatesOnce(t *testing.T) {
	const jobs, runs = 2000, 5
	sys := cluster.Config{Name: "alloc", Resources: []string{"nodes", "bb"}, Capacities: []int{64, 32}}
	trace := make([]*job.Job, jobs)
	for i := range trace {
		trace[i] = &job.Job{ID: 10 + 3*i, Submit: float64(i / 2), Runtime: 60, Walltime: 90, Demand: []int{1 + i%64, i % 33}}
	}
	sims := make([]*sim.Simulator, runs+1) // AllocsPerRun warms up once
	for i := range sims {
		sims[i] = sim.New(sys, sched.NewWindowPolicy(sched.FCFS{}, 10))
	}
	next := 0
	perLoad := testing.AllocsPerRun(runs, func() {
		if err := sims[next].Load(trace); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perLoad > 2 {
		t.Fatalf("Load of %d ascending-ID jobs: %.0f allocations, want the arrival list alone", jobs, perLoad)
	}
}
