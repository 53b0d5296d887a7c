package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// End-to-end coverage for the realistic-workload axes at the campaign layer:
// zipf, burst, and trace scenarios expand into cells, run identically under
// any worker count, and visibly change what the simulator sees.
func TestNewAxisCampaignEndToEnd(t *testing.T) {
	sc := tinyScale()
	var scenarios []scenario.ScenarioSpec
	for _, ref := range []string{"S4", "S4@zipf=0.9", "S4@burst=4x0.3", "T4"} {
		sp, err := scenario.ByName(ref)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sp)
	}
	spec := scenario.CampaignSpec{
		Name:      "new-axes-smoke",
		Scale:     sc.ScaleSpec,
		Scenarios: scenarios,
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	serial, err := RunCampaign(spec, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(spec, CampaignOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("new-axis campaign results depend on worker count")
	}

	byName := map[string]CellResult{}
	for _, r := range serial {
		if r.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs", r.Cell.Label())
		}
		byName[r.Cell.Scenario.Name] = r
	}
	base := byName["S4"].Report

	// zipf attributes ownership without touching scheduling: the per-user
	// metrics appear, everything the scheduler decides is unchanged.
	zipf := byName["S4@zipf=0.9"].Report
	if base.Users != 0 || zipf.Users == 0 {
		t.Fatalf("user attribution wrong: base users %d, zipf users %d", base.Users, zipf.Users)
	}
	if zipf.TopUserShare <= 1.0/float64(zipf.Users) {
		t.Fatalf("theta 0.9 produced no skew: top share %g over %d users", zipf.TopUserShare, zipf.Users)
	}
	if zipf.Jobs != base.Jobs || zipf.AvgWaitSec != base.AvgWaitSec || !reflect.DeepEqual(zipf.Utilization, base.Utilization) {
		t.Fatal("zipf attribution changed scheduling outcomes (schedulers must stay user-blind)")
	}

	// burst and trace replace the arrival process / base trace entirely.
	if burst := byName["S4@burst=4x0.3"].Report; burst.Jobs == base.Jobs && burst.AvgWaitSec == base.AvgWaitSec {
		t.Fatal("burst axis is decorative: report identical to base")
	}
	if tr := byName["T4"].Report; tr.Jobs == base.Jobs && tr.AvgWaitSec == base.AvgWaitSec {
		t.Fatal("trace axis is decorative: report identical to base")
	}
	if byName["T4"].Report.Users == 0 {
		t.Fatal("ingested trace lost its user attribution")
	}
}

// The theta-skew builtin campaign must expand and validate like any other
// registered campaign (its cells are exercised at tiny scale elsewhere; here
// we pin the spec-layer contract the driver relies on).
func TestThetaSkewCampaignExpands(t *testing.T) {
	sc := tinyScale()
	spec := scenario.ThetaSkewCampaign(sc.ScaleSpec)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	seeds := len(spec.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	if want := len(spec.Scenarios) * len(spec.Methods) * seeds; len(cells) != want {
		t.Fatalf("theta-skew expanded to %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d: seeds would drift across workers", i, c.Index)
		}
	}
}

// Cross-machine transfer, the tentpole's third axis: a model trained on the
// synthetic S4 curriculum, saved to a weights file, evaluates on the
// ingested-trace T4 scenario through the ordinary campaign model-file path.
func TestTraceTransferFromModelFile(t *testing.T) {
	sc := tinyScale()
	m, err := Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	agent, _, err := TrainMRSch(m, "S4", false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s4.model")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	t4, err := scenario.ByName("T4")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "transfer-smoke",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{t4},
		Methods: []scenario.MethodSpec{
			{Kind: scenario.KindMRSch, Model: path},
			{Kind: scenario.KindHeuristic},
		},
	}
	results, err := RunCampaign(spec, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	for _, r := range results {
		if r.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs on the transferred trace", r.Cell.Label())
		}
		if r.Report.Utilization[0] <= 0 {
			t.Fatalf("%s reports zero node utilization", r.Cell.Label())
		}
	}
}
