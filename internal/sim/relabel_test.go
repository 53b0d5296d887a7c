package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Job IDs only break ties: the cluster orders equal estimated ends by ID,
// and nothing else reads them. Relabelling the jobs with any order-preserving
// map must therefore leave the schedule, and so every field of the report,
// bitwise as it was — under FCFS and under a seeded random picker.
func TestReportInvariantUnderOrderPreservingRelabel(t *testing.T) {
	sys := cluster.Config{Name: "relabel", Resources: []string{"nodes", "bb", "power_kw"}, Capacities: []int{32, 16, 400}}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]*job.Job, 300)
		at := 0.0
		for i, id := range rng.Perm(len(trace)) { // IDs in no relation to arrival order
			at += float64(rng.Intn(3)) * 30
			run := float64(60 * (1 + rng.Intn(10))) // few distinct values: equal estimated ends are common
			trace[i] = &job.Job{ID: id, Submit: at, Runtime: run, Walltime: run * float64(1+rng.Intn(2)),
				Demand: []int{1 + rng.Intn(16), rng.Intn(9), 10 * rng.Intn(12)}, User: 1 + rng.Intn(5)}
		}
		relabelled := job.CloneAll(trace)
		for _, j := range relabelled {
			j.ID = 7*j.ID + 3
		}
		pickers := map[string]func() sched.Picker{
			"fcfs": func() sched.Picker { return sched.FCFS{} },
			"random": func() sched.Picker {
				pick := rand.New(rand.NewSource(seed))
				return sched.PickerFunc(func(ctx *sched.PickContext) int { return pick.Intn(len(ctx.Window)) })
			},
		}
		for name, picker := range pickers {
			var reports [2]string
			for k, jobs := range [][]*job.Job{trace, relabelled} {
				s := sim.New(sys, sched.NewWindowPolicy(picker(), 10))
				if err := s.Load(job.CloneAll(jobs)); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				// %v prints the shortest decimal that round-trips, so equal
				// strings are equal bits.
				reports[k] = fmt.Sprintf("%+v", metrics.Collect(name, "relabel", s, sys.ResourceIndex("power_kw")))
			}
			if reports[0] != reports[1] {
				t.Fatalf("seed %d, %s: relabelling the jobs changed the report\n before: %s\n after:  %s", seed, name, reports[0], reports[1])
			}
		}
	}
}
