package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// mustRun opens the campaign run the figures share, at a vetted test scale
// and one worker.
func mustRun(t *testing.T, sc Scale, opt CampaignOptions) *CampaignRun {
	t.Helper()
	opt.Workers = 1
	r, err := OpenCampaign(builtinCampaign(t, sc, "fig567"), opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// builtinCampaign resolves a builtin campaign at a test scale.
func builtinCampaign(t *testing.T, sc Scale, name string) scenario.CampaignSpec {
	t.Helper()
	spec, err := scenario.CampaignByName(name, sc.ScaleSpec)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderFigure renders one figure on the run the way mrsch-exp does: a study
// runs on r, a grid renders its campaign's cells, which figures of the same
// campaign share through results.
func renderFigure(t *testing.T, r *CampaignRun, fig Figure, results map[string][]CellResult) string {
	t.Helper()
	var buf bytes.Buffer
	if fig.Study != nil {
		if err := fig.Study(&buf, r); err != nil {
			t.Fatalf("figure %s: %v", fig.Name, err)
		}
		return buf.String()
	}
	if results[fig.Spec.Name] == nil {
		cells, err := r.Run(fig.Spec)
		if err != nil {
			t.Fatalf("figure %s: %v", fig.Name, err)
		}
		results[fig.Spec.Name] = cells
	}
	fig.Render(&buf, results[fig.Spec.Name])
	return buf.String()
}

// figureCells runs a figure's builtin campaign on a fresh run and returns
// its cells grouped by scenario.
func figureCells(t *testing.T, name string) ([]CellResult, [][]CellResult) {
	t.Helper()
	results, err := mustRun(t, tinyScale(), CampaignOptions{}).Run(builtinCampaign(t, tinyScale(), name))
	if err != nil {
		t.Fatal(err)
	}
	return results, byScenario(results)
}

// tinyScale keeps unit tests fast while exercising every code path.
func tinyScale() Scale {
	return ScaleFromSpec(scenario.ScaleSpec{
		Name:             "tiny",
		Div:              64,
		TraceDuration:    0.4 * 86400,
		MeanInterarrival: 200,
		Window:           6,
		SetsPerKind:      2,
		SetSize:          25,
		StepsPerEpisode:  6,
		EpsDecay:         0.7,
		Seed:             5,
	})
}

// trainMRSch is TrainMRSch under explicit runtime options.
func trainMRSch(m *Materials, name string, opt CampaignOptions) (*core.MRSch, []core.EpisodeResult, error) {
	t, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: name}, opt)
	return t.MRSch, t.Episodes, err
}

func TestFigure1ReproducesTheMotivation(t *testing.T) {
	r, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.FixedWeightMakespanH != 3 {
		t.Fatalf("fixed-weight makespan = %v h, want 3 (paper)", r.FixedWeightMakespanH)
	}
	if r.OptimalMakespanH != 2 {
		t.Fatalf("optimal makespan = %v h, want 2 (paper)", r.OptimalMakespanH)
	}
	var buf bytes.Buffer
	FprintFigure1(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestPrepareMaterials(t *testing.T) {
	m := MustPrepare(tinyScale())
	if len(m.Base) == 0 || len(m.Test) == 0 || len(m.Train) == 0 {
		t.Fatalf("materials empty: base=%d train=%d test=%d", len(m.Base), len(m.Train), len(m.Test))
	}
	for _, wl := range WorkloadNames() {
		jobs := m.Workload(wl)
		if len(jobs) != len(m.Test) {
			t.Fatalf("%s: %d jobs, want %d", wl, len(jobs), len(m.Test))
		}
		if jobs[0].Submit != 0 {
			t.Fatalf("%s not rebased: first submit %v", wl, jobs[0].Submit)
		}
	}
	for _, sp := range scenario.Builtins() {
		if !sp.Power {
			continue
		}
		jobs := m.Workload(sp.Name)
		if len(jobs) == 0 || len(jobs[0].Demand) != 3 {
			t.Fatalf("%s power workload malformed", sp.Name)
		}
	}
}

func TestCurriculumSetsCoverAllKinds(t *testing.T) {
	m := MustPrepare(tinyScale())
	byKind := m.CurriculumSets("S4")
	for _, kind := range []core.JobSetKind{core.Sampled, core.Real, core.Synthetic} {
		sets := byKind[kind]
		if len(sets) != tinyScale().SetsPerKind {
			t.Fatalf("%v: %d sets", kind, len(sets))
		}
		for _, set := range sets {
			if len(set) == 0 {
				t.Fatalf("%v: empty set", kind)
			}
		}
	}
}

func TestOrderingsAreSixPermutations(t *testing.T) {
	os := Orderings()
	if len(os) != 6 {
		t.Fatalf("%d orderings", len(os))
	}
	seen := map[string]bool{}
	for _, o := range os {
		if seen[o.Label()] {
			t.Fatalf("duplicate ordering %s", o.Label())
		}
		seen[o.Label()] = true
		kinds := map[core.JobSetKind]bool{o[0]: true, o[1]: true, o[2]: true}
		if len(kinds) != 3 {
			t.Fatalf("ordering %s is not a permutation", o.Label())
		}
	}
	if !seen["Sampled+Real+Synthetic"] {
		t.Fatal("paper's best ordering missing")
	}
}

func TestTrainMRSchProducesWorkingAgent(t *testing.T) {
	m := MustPrepare(tinyScale())
	agent, results, err := TrainMRSch(m, "S1", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3*tinyScale().SetsPerKind {
		t.Fatalf("%d episodes, want %d", len(results), 3*tinyScale().SetsPerKind)
	}
	rep, err := Evaluate(m.Scale.System(), agent.Model().Evaluator().Policy(), m.Workload("S1"), MethodMRSch, "S1", -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(m.Test) {
		t.Fatalf("evaluated %d jobs, want %d", rep.Jobs, len(m.Test))
	}
	if rep.Utilization[0] <= 0 || rep.Utilization[0] > 1 {
		t.Fatalf("node utilization %v out of range", rep.Utilization[0])
	}
}

func TestFigures56AllMethodsComplete(t *testing.T) {
	results, rows := figureCells(t, "fig567")
	if len(rows) != 5 {
		t.Fatalf("%d workloads", len(rows))
	}
	for _, row := range rows {
		wl := row[0].Cell.Scenario.Name
		if len(row) != 4 {
			t.Fatalf("%s: %d methods", wl, len(row))
		}
		for i, cell := range row {
			r := cell.Report
			if r.Method != scenario.Kinds()[i].DisplayName() {
				t.Fatalf("method order broken: %s at %d", r.Method, i)
			}
			if r.Jobs == 0 {
				t.Fatalf("%s/%s completed no jobs", wl, r.Method)
			}
			for _, u := range r.Utilization {
				if u < 0 || u > 1 {
					t.Fatalf("%s/%s utilization %v", wl, r.Method, u)
				}
			}
			if r.AvgSlowdown < 1 {
				t.Fatalf("%s/%s slowdown %v < 1", wl, r.Method, r.AvgSlowdown)
			}
		}
		for _, mrow := range kiviatOf(row, false) {
			for _, v := range mrow {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%s kiviat value %v", wl, v)
				}
			}
		}
	}
	// Renderers must not crash and must mention every workload.
	var buf bytes.Buffer
	FprintFigure5(&buf, results)
	FprintFigure6(&buf, results)
	FprintFigure7(&buf, results)
	for _, wl := range WorkloadNames() {
		if !strings.Contains(buf.String(), "  "+wl+" ") {
			t.Fatalf("figure rendering never mentions %s", wl)
		}
	}
}

func TestFigure4SeriesShape(t *testing.T) {
	series, err := Figure4(mustRun(t, tinyScale(), CampaignOptions{}), "S4")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Loss) == 0 {
			t.Fatalf("%s: empty loss curve", s.Label)
		}
		for _, l := range s.Loss {
			if l < 0 || math.IsNaN(l) {
				t.Fatalf("%s: bad loss %v", s.Label, l)
			}
		}
	}
	var buf bytes.Buffer
	FprintFigure4(&buf, series)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestFigure8And9GoalDynamics(t *testing.T) {
	c := mustRun(t, tinyScale(), CampaignOptions{})
	samples, err := Figure8(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if s.RBB < 0 || s.RBB > 1 {
			t.Fatalf("r_BB %v out of [0,1]", s.RBB)
		}
	}
	rows, err := Figure9(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d box rows", len(rows))
	}
	for _, r := range rows {
		if r.Stats.N == 0 {
			t.Fatalf("%s: empty stats", r.Workload)
		}
		if r.Stats.Min < 0 || r.Stats.Max > 1 {
			t.Fatalf("%s: r_BB range [%v,%v]", r.Workload, r.Stats.Min, r.Stats.Max)
		}
	}
	// The paper's key observation: r_BB varies (unlike scalar RL's fixed
	// 0.5) and S5 has the heaviest BB preference of the ladder.
	if rows[4].Stats.Max == rows[4].Stats.Min {
		t.Fatal("r_BB never changed on S5; dynamic prioritizing is broken")
	}
	if rows[4].Stats.Mean <= rows[0].Stats.Mean {
		t.Fatalf("S5 mean r_BB (%v) should exceed S1's (%v)", rows[4].Stats.Mean, rows[0].Stats.Mean)
	}
	var buf bytes.Buffer
	FprintFigure8(&buf, samples)
	FprintFigure9(&buf, rows)
}

func TestFigure10ThreeResources(t *testing.T) {
	results, rows := figureCells(t, "fig10")
	if len(rows) != 5 {
		t.Fatalf("%d workloads", len(rows))
	}
	for _, row := range rows {
		for _, cell := range row {
			r := cell.Report
			if len(r.Utilization) != 3 {
				t.Fatalf("%s/%s: %d resources", r.Workload, r.Method, len(r.Utilization))
			}
			if r.AvgSysPowerKW <= 0 {
				t.Fatalf("%s/%s: no power accounted", r.Workload, r.Method)
			}
		}
	}
	if rows[0][0].Cell.Scenario.Name != "S6" {
		t.Fatalf("first fig10 scenario is %s, want S6", rows[0][0].Cell.Scenario.Name)
	}
	if axes := len(kiviatOf(rows[0], true)[0]); axes != 5 {
		t.Fatalf("power kiviat has %d axes, want 5", axes)
	}
	var buf bytes.Buffer
	FprintFigure10(&buf, results)
}

func TestOptimalBatchesBruteForce(t *testing.T) {
	jobs := figure1Jobs()
	if got := optimalBatches(jobs, []int{100, 100}); got != 2 {
		t.Fatalf("optimal batches = %d, want 2", got)
	}
	// All four together need 195/120: infeasible in one batch; two jobs
	// whose sum exceeds capacity force >= 2 batches.
	if got := optimalBatches(jobs[:1], []int{100, 100}); got != 1 {
		t.Fatalf("single job batches = %d", got)
	}
}
