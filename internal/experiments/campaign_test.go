package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// The method constants the figures print are the display names of the
// scenario registry — the adapter contract between the two layers.
func TestMethodConstantsMatchScenarioRegistry(t *testing.T) {
	want := map[string]scenario.MethodKind{
		MethodMRSch:     scenario.KindMRSch,
		MethodOptimize:  scenario.KindOptimize,
		MethodScalarRL:  scenario.KindScalarRL,
		MethodHeuristic: scenario.KindHeuristic,
	}
	for name, kind := range want {
		if kind.DisplayName() != name {
			t.Fatalf("kind %s displays as %q, want %q", kind, kind.DisplayName(), name)
		}
		m, err := scenario.MethodByName(name)
		if err != nil || m.Kind != kind {
			t.Fatalf("MethodByName(%q) = %v, %v", name, m, err)
		}
	}
}

// The -fig sweep grid is the paper campaign: every builtin scenario under
// the two training-free methods, half of them on the three-resource system.
func TestSweepGridShape(t *testing.T) {
	cells := scenario.PaperCampaign(tinyScale().ScaleSpec).Expand()
	if len(cells) != 20 { // (5 + 5 workloads) x 2 methods
		t.Fatalf("%d cells, want 20", len(cells))
	}
	twoRes, threeRes := 0, 0
	for _, c := range cells {
		if c.Method.Kind.Trained() {
			t.Fatalf("%s: the sweep grid is training-free", c.Label())
		}
		if c.Scenario.Arity() == 3 {
			threeRes++
		} else {
			twoRes++
		}
	}
	if twoRes != 10 || threeRes != 10 {
		t.Fatalf("arity split %d/%d, want 10/10", twoRes, threeRes)
	}
}

// Sweep cells are independent evaluation episodes, so the worker count must
// not change any result — unlike training, where it changes the (equally
// valid) interleaving.
func TestSweepIndependentOfWorkerCount(t *testing.T) {
	spec := scenario.PaperCampaign(tinyScale().ScaleSpec)
	serial, err := RunCampaign(spec, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(spec, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sweep results depend on worker count")
	}
	for i, r := range serial {
		if r.Cell != spec.Expand()[i] {
			t.Fatalf("result %d out of grid order: %s", i, r.Cell.Label())
		}
		if r.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs", r.Cell.Label())
		}
		if len(r.Report.Utilization) != r.Cell.Scenario.Arity() {
			t.Fatalf("%s: %d resources, want %d", r.Cell.Label(), len(r.Report.Utilization), r.Cell.Scenario.Arity())
		}
	}
}

// Base-trace variants need their own materials, which the campaign run
// prepares per cell; a workload built for one against the base materials
// must fail, not report results for a scenario that was never built (the
// check the sweep adapter made up front is WorkloadSpec's own).
func TestSweepRejectsBaseTraceVariants(t *testing.T) {
	m := MustPrepare(tinyScale())
	for _, wl := range []string{"S4@div=16", "S4@ia=0.75"} {
		sp, err := scenario.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.WorkloadSpec(sp); err == nil {
			t.Fatalf("base materials accepted %s", wl)
		}
	}
	// Walltime noise applies at workload construction and is fine.
	sp, err := scenario.ByName("S4@wtn=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if jobs, err := m.WorkloadSpec(sp); err != nil || len(jobs) == 0 {
		t.Fatalf("wtn variant against base materials: %d jobs, %v", len(jobs), err)
	}
}

// A JSON round trip of the campaign spec changes nothing about the run.
func TestCampaignJSONRoundTripSameResults(t *testing.T) {
	spec := scenario.PaperCampaign(tinyScale().ScaleSpec)
	spec.Scenarios = spec.Scenarios[:2]
	spec.Methods = []scenario.MethodSpec{{Kind: scenario.KindHeuristic}}

	var buf bytes.Buffer
	if err := spec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := scenario.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunCampaign(spec, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	roundTripped, err := RunCampaign(loaded, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, roundTripped) {
		t.Fatal("round-tripped campaign produced different results")
	}
}

// Theta-variant cells run end-to-end: each axis changes the inputs it
// claims to change, results are worker-count independent, and reports carry
// completed jobs.
func TestThetaVariantCellsRunEndToEnd(t *testing.T) {
	sc := tinyScale()
	base, err := scenario.ByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	var variants []scenario.ScenarioSpec
	for _, ref := range []string{"S4@wtn=0.5", "S4@ia=0.75", "S4@div=32"} {
		sp, err := scenario.ByName(ref)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, sp)
	}
	spec := scenario.CampaignSpec{
		Name:      "variant-smoke",
		Scale:     sc.ScaleSpec,
		Scenarios: append([]scenario.ScenarioSpec{base}, variants...),
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
	}
	serial, err := RunCampaign(spec, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(spec, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("campaign results depend on worker count")
	}
	byName := map[string]CellResult{}
	for _, r := range serial {
		if r.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs", r.Cell.Label())
		}
		byName[r.Cell.Scenario.Name] = r
	}
	// Each variant must actually differ from the base cell (the axes are
	// live, not decorative).
	baseRep := byName["S4"].Report
	for _, v := range variants {
		if reflect.DeepEqual(byName[v.Name].Report, baseRep) {
			t.Fatalf("variant %s reproduced the base report exactly; its axis did nothing", v.Name)
		}
	}
	var buf bytes.Buffer
	FprintCells(&buf, spec.Name, serial)
	if buf.Len() == 0 {
		t.Fatal("empty campaign rendering")
	}
}

// Trained methods: train=true builds one model per scenario family and
// reuses it across the family's cells; a model file reloads into a fresh
// campaign identically.
func TestCampaignTrainsOneModelPerFamily(t *testing.T) {
	sc := tinyScale()
	base, err := scenario.ByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	variant, err := scenario.ByName("S4@wtn=0.5")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "trained-smoke",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{base, variant},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindMRSch, Train: true}},
	}
	results, err := RunCampaign(spec, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d cells, want 2", len(results))
	}
	for _, r := range results {
		if r.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs", r.Cell.Label())
		}
	}

	// Save the family model the same way mrsch-train would and rerun the
	// campaign loading it from the file: the model-reference path must
	// produce the same reports without retraining. The reference training
	// pins the same rollout worker count the campaign used.
	agent, _, err := trainMRSch(MustPrepare(sc), "S4", CampaignOptions{Workers: 2})
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
	f.Close()

	spec.Methods = []scenario.MethodSpec{{Kind: scenario.KindMRSch, Model: path}}
	loaded, err := RunCampaign(spec, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !reflect.DeepEqual(results[i].Report, loaded[i].Report) {
			t.Fatalf("cell %d: model-file run differs from in-process training", i)
		}
	}
}

func TestCampaignRejectsUntrainedModelMethods(t *testing.T) {
	spec := scenario.PaperCampaign(tinyScale().ScaleSpec)
	spec.Methods = []scenario.MethodSpec{{Kind: scenario.KindMRSch}} // no train, no model
	if _, err := RunCampaign(spec, CampaignOptions{Workers: 1}); err == nil {
		t.Fatal("campaign accepted a trained method with neither train nor model")
	}
}

func TestPrepareRejectsDegenerateScales(t *testing.T) {
	cases := []func(*Scale){
		func(s *Scale) { s.Div = 0 },
		func(s *Scale) { s.Div = -4 },
		func(s *Scale) { s.Window = 0 },
		func(s *Scale) { s.SetSize = -1 },
		func(s *Scale) { s.TraceDuration = 0 },
		func(s *Scale) { s.SetsPerKind = 0 },
		func(s *Scale) { s.MeanInterarrival = 0 },
	}
	for i, mutate := range cases {
		sc := tinyScale()
		mutate(&sc)
		if _, err := Prepare(sc); err == nil {
			t.Fatalf("case %d: Prepare accepted %+v", i, sc)
		}
	}
	if _, err := Prepare(tinyScale()); err != nil {
		t.Fatalf("Prepare rejected a valid scale: %v", err)
	}
}
