// Multi-resource comparison: the paper's §V-C experiment in miniature.
//
// Replays one Table III workload (default S4: 75% of jobs request 20-285 TB
// of burst buffer) through all four scheduling methods — MRSch, the
// multi-objective GA ("Optimization"), the fixed-weight policy gradient
// ("Scalar RL"), and FCFS ("Heuristic") — and prints the Figure 5/6 metrics
// plus the Figure 7 Kiviat areas.
//
// Run with:
//
//	go run ./examples/multiresource [-workload S1..S5]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	wl := flag.String("workload", "S4", "Table III workload (S1-S5)")
	flag.Parse()

	// One row of the fig567 campaign, on a machine a bit smaller than the
	// benchmark scale: this is a demo.
	scale := scenario.QuickScaleSpec()
	scale.Div = 48
	scale.TraceDuration = 0.5 * 86400
	scale.SetsPerKind = 3
	scale.SetSize = 50
	spec, err := scenario.CampaignByName("fig567", scale)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := scenario.ByName(*wl)
	if err != nil {
		log.Fatal(err)
	}
	spec.Scenarios = []scenario.ScenarioSpec{sp}

	fmt.Printf("comparing 4 methods on %s (Theta/%d, %.1f-day trace)\n\n", *wl, scale.Div, scale.TraceDuration/86400)
	results, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	// The figures are renderers over a campaign's cells, whichever cells.
	for _, render := range []func(io.Writer, []experiments.CellResult){
		experiments.FprintFigure5, experiments.FprintFigure6, experiments.FprintFigure7,
	} {
		render(os.Stdout, results)
		fmt.Println()
	}
}
