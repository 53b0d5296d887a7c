package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// The seed-axis aggregation of FprintCells: replicated (scenario, method)
// pairs get a mean±sd row per §IV-B metric. The rendering is pinned
// byte-for-byte — it is part of the campaign output surface.
func TestFprintCellsSeedAggregate(t *testing.T) {
	sp := scenario.ScenarioSpec{Name: "S4", BBProb: 0.5, MinTB: 1, MaxTB: 10}
	fcfs := scenario.MethodSpec{Kind: scenario.KindHeuristic}
	mrsch := scenario.MethodSpec{Kind: scenario.KindMRSch, Train: true}
	rep := func(u0, u1, waitSec, sd float64) metrics.Report {
		return metrics.Report{Utilization: []float64{u0, u1}, AvgWaitSec: waitSec, AvgSlowdown: sd}
	}
	results := []CellResult{
		{Cell: scenario.Cell{Index: 0, Scenario: sp, Method: mrsch, Seed: 101}, Report: rep(0.84, 0.62, 7200, 3.5)},
		{Cell: scenario.Cell{Index: 1, Scenario: sp, Method: mrsch, Seed: 102}, Report: rep(0.80, 0.58, 9000, 4.5)},
		{Cell: scenario.Cell{Index: 2, Scenario: sp, Method: fcfs, Seed: 101}, Report: rep(0.70, 0.50, 14400, 8)},
		{Cell: scenario.Cell{Index: 3, Scenario: sp, Method: fcfs, Seed: 102}, Report: rep(0.74, 0.54, 10800, 6)},
	}
	var buf bytes.Buffer
	FprintCells(&buf, "agg-demo", results)
	want := "Campaign agg-demo — scenario x method x seed grid (episode per cell):\n" +
		"  scenario         method        res     util[0]   util[1]  wait(h)  slowdown\n" +
		"  S4#101           MRSch         2         0.840     0.620     2.00      3.50\n" +
		"  S4#102           MRSch         2         0.800     0.580     2.50      4.50\n" +
		"  S4#101           Heuristic     2         0.700     0.500     4.00      8.00\n" +
		"  S4#102           Heuristic     2         0.740     0.540     3.00      6.00\n" +
		"\n" +
		"  Across seed replicates (mean±sd):\n" +
		"  scenario         method        n             util[0]         util[1]         wait(h)        slowdown\n" +
		"  S4               MRSch         2        0.820±0.028     0.600±0.028     2.250±0.354     4.000±0.707 \n" +
		"  S4               Heuristic     2        0.720±0.028     0.520±0.028     3.500±0.707     7.000±1.414 \n"
	if got := buf.String(); got != want {
		t.Fatalf("aggregated rendering drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Campaigns without a seed axis render exactly as before — no aggregate
// block — including when several cells failed (failed CellResults carry
// their real Cell, so distinct failures must not collapse into one
// phantom replicated group).
func TestFprintCellsNoSeedAxisUnchanged(t *testing.T) {
	sp := scenario.ScenarioSpec{Name: "S1", BBProb: 0.2, MinTB: 1, MaxTB: 10}
	sp2 := scenario.ScenarioSpec{Name: "S2", BBProb: 0.4, MinTB: 1, MaxTB: 10}
	fcfs := scenario.MethodSpec{Kind: scenario.KindHeuristic}
	results := []CellResult{
		{
			Cell:   scenario.Cell{Index: 0, Scenario: sp, Method: fcfs},
			Report: metrics.Report{Utilization: []float64{0.5, 0.4}, AvgWaitSec: 3600, AvgSlowdown: 2},
		},
		{Cell: scenario.Cell{Index: 1, Scenario: sp2, Method: fcfs}}, // failed: zero Report
		{Cell: scenario.Cell{Index: 2, Scenario: scenario.ScenarioSpec{Name: "S3"}, Method: fcfs}},
	}
	var buf bytes.Buffer
	FprintCells(&buf, "plain", results)
	if strings.Contains(buf.String(), "Across seed replicates") {
		t.Fatalf("aggregate block rendered without replicates:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "S2") || !strings.Contains(buf.String(), "(failed)") {
		t.Fatalf("failed cells lost their scenario label:\n%s", buf.String())
	}
}

// End-to-end: a campaign with a Seeds axis replicates every cell and the
// rendered table carries the aggregate rows.
func TestCampaignSeedAxisEndToEnd(t *testing.T) {
	sc := tinyScale()
	base, err := scenario.ByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "seeded",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{base},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
		Seeds:     []int64{21, 22, 23},
	}
	results, err := RunCampaign(spec, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d cells, want 3 seed replicates", len(results))
	}
	var buf bytes.Buffer
	FprintCells(&buf, spec.Name, results)
	out := buf.String()
	if !strings.Contains(out, "Across seed replicates") {
		t.Fatalf("no aggregate block for a seeded campaign:\n%s", out)
	}
	if !strings.Contains(out, "S1               Heuristic     3 ") {
		t.Fatalf("aggregate row missing the replicate count:\n%s", out)
	}
}
