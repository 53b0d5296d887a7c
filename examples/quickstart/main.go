// Quickstart: simulate a small multi-resource cluster under two schedulers.
//
// This example builds a 64-node machine with a 24 TB burst buffer, generates
// a few hours of synthetic jobs with burst-buffer requests, and replays them
// through the FCFS heuristic and through an MRSch agent trained for a few
// quick episodes, printing the paper's four evaluation metrics for each.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rollout"
	"repro/internal/workload"
)

func main() {
	// 1. Describe the machine: every resource is a pool of units.
	sys := cluster.Config{
		Name:       "demo",
		Resources:  []string{"nodes", "bb_tb"},
		Capacities: []int{64, 24},
	}

	// 2. Generate a workload: a synthetic Theta-like arrival stream with
	//    Darshan-style burst-buffer requests, then the Table III "S4"
	//    transformation (75% of jobs request a large burst-buffer share).
	gen := workload.GeneratorConfig{System: sys, Duration: 8 * 3600, MeanInterarrival: 60, Seed: 7}
	base := workload.GenerateBase(gen)
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], 8)
	s4, err := workload.ScenarioByName("S4")
	if err != nil {
		log.Fatal(err)
	}
	jobs := workload.Apply(base, pool, s4, sys, 9)
	fmt.Printf("workload: %d jobs over 8 hours on %d nodes / %d TB burst buffer\n\n",
		len(jobs), sys.Capacities[0], sys.Capacities[1])

	// 3. Baseline: FCFS with EASY backfilling (the paper's Heuristic).
	fcfs, err := experiments.Evaluate(sys, experiments.FCFSPolicy(10), jobs, "Heuristic", "S4", -1)
	if err != nil {
		log.Fatal(err)
	}

	// 4. MRSch: train a compact agent for a handful of episodes on sampled
	//    job sets through the rollout harness, then evaluate greedily.
	agent := core.New(sys, core.Options{
		Window: 10,
		Seed:   1,
		Mutate: func(c *dfp.Config) {
			c.EpsDecay = 0.7 // short demo: reach exploitation quickly
			c.Offsets = []int{1, 2, 4, 8}
			c.TemporalWeights = []float64{0, 0.5, 0.5, 1}
		},
	})
	var curriculum []core.JobSet
	for episode := 0; episode < 8; episode++ {
		sets := workload.SampledSets(jobs, 1, 40, int64(100+episode))
		train := workload.Apply(sets[0], pool, s4, sys, int64(200+episode))
		curriculum = append(curriculum, core.JobSet{Kind: core.Sampled, Jobs: train})
	}
	learner := rollout.NewMRSchLearner(agent, core.TrainConfig{System: sys, StepsPerEpisode: 16})
	results, err := rollout.Train(learner, rollout.Config{Seed: 1}, curriculum)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("training episode %d: loss=%.4f epsilon=%.2f\n", i+1, res.Loss, res.Epsilon)
	}
	fmt.Println()
	mrsch, err := experiments.Evaluate(sys, agent.Model().Evaluator().Policy(), jobs, "MRSch", "S4", -1)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Compare the four §IV-B metrics.
	fmt.Println("            method   node-util    bb-util   avg-wait   avg-slowdown")
	printRow := func(name string, r metrics.Report) {
		fmt.Printf("%18s   %8.1f%%  %8.1f%%  %7.2f h  %12.2f\n",
			name, r.Utilization[0]*100, r.Utilization[1]*100, r.AvgWaitHours(), r.AvgSlowdown)
	}
	printRow("Heuristic (FCFS)", fcfs)
	printRow("MRSch", mrsch)
}
