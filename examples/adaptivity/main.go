// Adaptivity: watch MRSch's dynamic resource prioritizing (Figures 8 and 9).
//
// Runs a trained agent on the burst-buffer-heavy S5 workload and prints the
// Eq. (1) goal-vector value for the burst buffer (r_BB) as the simulation
// progresses, followed by its box statistics on every Table III workload.
// A scalar-reward RL scheduler would hold r_BB fixed at 0.5; MRSch raises it
// when pending burst-buffer demand outweighs CPU demand and lowers it when
// the pressure drains.
//
// Run with:
//
//	go run ./examples/adaptivity
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	// Figures 8 and 9 are studies on a campaign run: they read the S1-S5
	// MRSch family models the four-method campaign trains.
	scale := scenario.QuickScaleSpec()
	scale.Div = 48
	scale.TraceDuration = 0.5 * 86400
	scale.SetsPerKind = 3
	scale.SetSize = 50
	spec, err := scenario.CampaignByName("fig567", scale)
	if err != nil {
		log.Fatal(err)
	}
	c, err := experiments.OpenCampaign(spec, experiments.CampaignOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}

	samples, err := experiments.Figure8(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("r_BB over time under S5 (each bar is one scheduling decision):")
	fmt.Println()
	step := len(samples) / 24
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(samples); i += step {
		s := samples[i]
		bar := strings.Repeat("#", int(s.RBB*40))
		fmt.Printf("  %6.2fh  %.3f  %s\n", s.T/3600, s.RBB, bar)
	}

	fmt.Println()
	rows, err := experiments.Figure9(c)
	if err != nil {
		log.Fatal(err)
	}
	experiments.FprintFigure9(os.Stdout, rows)
	fmt.Println()
	fmt.Println("The scalar-RL baseline would sit at 0.500 on every row; the rising")
	fmt.Println("mean from S1 to S5 is the dynamic prioritizing of §III-B at work.")
}
