package experiments

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// The paper trains a model once and evaluates it across many traces: a
// campaign whose method names a model file loads it once for every replicate
// seed and every scenario of the family, and each cell still reports what a
// fresh agent loaded for that cell alone reports.
func TestModelFileSharedAcrossSeeds(t *testing.T) {
	checkModelFileShared(t, scenario.KindMRSch)
}

// Scalar RL samples its policy, so its cells read the shared agent through
// evaluators seeded by the cell (Seed+9000+Index), never by the agent. A spec
// takes model files for mrsch only (MethodSpec.Validate), so these cells are
// resolved and fanned out as Run does, past the spec check.
func TestModelFileSharedAcrossSeedsScalarRL(t *testing.T) {
	checkModelFileShared(t, scenario.KindScalarRL)
}

func checkModelFileShared(t *testing.T, kind scenario.MethodKind) {
	sc := tinyScale()
	path := saveModelFile(t, sc, TrainRun{Kind: kind, Family: "S4"})
	spec := scenario.CampaignSpec{
		Name:      "model-file-seeds",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{mustScenario("S4"), mustScenario("S4@wtn=0.5")},
		Methods:   []scenario.MethodSpec{{Kind: kind, Model: path}},
		Seeds:     []int64{3, 9, 27},
	}
	open := spec
	if kind != scenario.KindMRSch {
		open.Methods = []scenario.MethodSpec{{Kind: scenario.KindHeuristic}}
	}
	files := 0
	r, err := OpenCampaign(open, CampaignOptions{Workers: 2, OnModel: func(_, action, got string) {
		if action != "file" || got != path {
			t.Errorf("OnModel(%s, %s), want a file event for %s", action, got, path)
		}
		files++
	}})
	if err != nil {
		t.Fatal(err)
	}
	var results []CellResult
	if kind == scenario.KindMRSch {
		results, err = r.Run(spec)
	} else {
		results, err = runPastSpecCheck(r, spec.Expand())
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d cells, want 6", len(results))
	}
	if files != 1 || len(r.models) != 1 {
		t.Fatalf("%d file events and %d models for one file over 3 seeds and 2 scenarios, want 1 and 1", files, len(r.models))
	}
	shared := agentOf(r.models[r.modelKey(results[0].Cell)])
	for _, res := range results {
		if got := agentOf(r.models[r.modelKey(res.Cell)]); got != shared {
			t.Fatalf("%s resolved to its own agent", res.Cell.Label())
		}
		// The oracle is the per-seed load: a fresh run that resolves this
		// cell alone builds and loads an agent at the cell's seed.
		one, err := OpenCampaign(open, CampaignOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := one.ResolveCell(res.Cell); err != nil {
			t.Fatal(err)
		}
		if agentOf(one.models[one.modelKey(res.Cell)]) == shared {
			t.Fatalf("%s: the oracle run reused the shared agent", res.Cell.Label())
		}
		want, err := one.EvalCell(res.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if want.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs", res.Cell.Label())
		}
		if !reflect.DeepEqual(res.Report, want.Report) {
			t.Fatalf("%s: the shared agent reports %+v, a fresh agent for the cell alone %+v", res.Cell.Label(), res.Report, want.Report)
		}
	}
}

// A model file's agent is keyed by what it is built from, so the same file
// is one agent wherever it builds alike (another family, another seed) and
// another agent wherever it does not: another file, another CNN flag, a
// power budget that sizes the encoding differently.
func TestModelFileAgentsFollowTheirBuild(t *testing.T) {
	sc := tinyScale()
	m := MustPrepare(sc)
	s4, s5, s6 := mustScenario("S4"), mustScenario("S5"), mustScenario("S6")
	tight := s6
	tight.Name, tight.PowerBudgetKW = "S6-tight", workload.ThetaPowerBudgetKW/2
	if reflect.DeepEqual(m.SystemFor(tight), m.SystemFor(s6)) {
		t.Fatalf("budget %d kW gives the default power system %v at this scale", tight.PowerBudgetKW, m.SystemFor(s6))
	}
	// Untrained weights suffice: which agent a cell resolves to is under test.
	dir := t.TempDir()
	save := func(name string, power bool, sys cluster.Config) string {
		model, _, err := sc.newAgent(TrainRun{Kind: scenario.KindMRSch, Power: power}, sys)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := storeModel(path, model.save); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mlp := save("s4.model", false, m.SystemFor(s4))
	twin := save("s4-twin.model", false, m.SystemFor(s4)) // the same bytes under another name
	power := save("s6.model", true, m.SystemFor(s6))
	tightPower := save("s6-tight.model", true, m.SystemFor(tight))

	r, err := OpenCampaign(scenario.CampaignSpec{
		Name:      "model-file-keys",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{s4},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
	}, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(sp scenario.ScenarioSpec, seed int64, path string, cnn bool) scenario.Cell {
		return scenario.Cell{Scenario: sp, Seed: seed, Method: scenario.MethodSpec{Kind: scenario.KindMRSch, Model: path, CNN: cnn}}
	}
	agent := func(c scenario.Cell) any {
		t.Helper()
		if err := r.ResolveCell(c); err != nil {
			t.Fatal(err)
		}
		return agentOf(r.models[r.modelKey(c)])
	}
	base := agent(cell(s4, 0, mlp, false))
	for _, c := range []scenario.Cell{cell(s5, 0, mlp, false), cell(s4, 11, mlp, false), cell(s5, 13, mlp, false)} {
		if agent(c) != base {
			t.Errorf("%s (seed %d) loaded %s again", c.Label(), c.Seed, mlp)
		}
	}
	if agent(cell(s4, 0, twin, false)) == base {
		t.Error("a second file resolved to the first file's agent")
	}
	powered := agent(cell(s6, 0, power, false))
	if agent(cell(s6, 0, power, true)) == powered {
		t.Error("the same file under another cnn flag resolved to the same agent")
	}
	if agent(cell(tight, 0, tightPower, false)) == powered {
		t.Error("a power budget that sizes the encoding differently resolved to the default budget's agent")
	}
	// The default budget's file does not fit the tight budget's encoding: a
	// key without the system would have handed that cell the default agent.
	if err := r.ResolveCell(cell(tight, 0, power, false)); err == nil {
		t.Error("a file for the default power budget resolved under a tight budget")
	}
	if len(r.models) != 5 {
		t.Errorf("%d models, want 5: the S4 file, its twin, the S6 file under each cnn flag, the tight budget's file", len(r.models))
	}
}

// runPastSpecCheck is Run on cells whose spec would not validate: resolve
// serially, then evaluate over the run's workers.
func runPastSpecCheck(r *CampaignRun, cells []scenario.Cell) ([]CellResult, error) {
	for _, cell := range cells {
		if err := r.ResolveCell(cell); err != nil {
			return nil, err
		}
	}
	results, errs := rollout.MapCollect(r.opt.Workers, cells, func(_, _ int, cell scenario.Cell) (CellResult, error) {
		return r.EvalCell(cell)
	})
	return results, errors.Join(errs...)
}

// saveModelFile trains run on the scale's base materials and writes the
// weights where a method's model field can name them.
func saveModelFile(t *testing.T, sc Scale, run TrainRun) string {
	t.Helper()
	model, err := Train(MustPrepare(sc), run, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), string(run.Kind)+".model")
	if err := storeModel(path, model.save); err != nil {
		t.Fatal(err)
	}
	return path
}

// agentOf is the model or agent a resolved model holds, for identity
// comparisons.
func agentOf(m heldModel) any {
	if m.mrsch != nil {
		return m.mrsch
	}
	return m.scalarRL
}
