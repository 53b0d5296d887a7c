// Power-capped scheduling: the §V-E case study with three resources.
//
// Extends the machine with a power budget (1 kW units, scaled from Theta's
// 500 kW), gives every job a power profile of 100-215 W per node, and
// compares MRSch against FCFS on an S9-style workload (the power-extended
// S4). The goal vector now has three entries — node, burst-buffer, and power
// priorities — and MRSch rebalances them as contention shifts.
//
// Run with:
//
//	go run ./examples/powercap
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	// Two cells of the fig10 campaign: S9 under MRSch and under FCFS.
	scale := scenario.QuickScaleSpec()
	scale.Div = 48
	scale.TraceDuration = 0.5 * 86400
	scale.SetsPerKind = 3
	scale.SetSize = 50
	s9, err := scenario.ByName("S9")
	if err != nil {
		log.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "powercap",
		Scale:     scale,
		Scenarios: []scenario.ScenarioSpec{s9},
		Methods: []scenario.MethodSpec{
			{Kind: scenario.KindMRSch, Train: true},
			{Kind: scenario.KindHeuristic},
		},
	}

	psys := experiments.ScaleFromSpec(scale).PowerSystem()
	fmt.Printf("three-resource system: %d nodes, %d TB burst buffer, %d kW power budget\n\n",
		psys.Capacities[0], psys.Capacities[1], psys.Capacities[2])

	results, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}

	experiments.FprintFigure10(os.Stdout, results)
	fmt.Println()
	fmt.Println("The site objective of §V-E is to maximize node and burst-buffer")
	fmt.Println("utilization and the power consumption of running jobs within the")
	fmt.Println("budget; MRSch extends to R resources by adding measurement and goal")
	fmt.Println("entries, with no structural change.")
}
