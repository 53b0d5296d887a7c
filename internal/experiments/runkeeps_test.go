package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// reportDigest is the identity of a report: every float bit shows in its JSON.
func reportDigest(t *testing.T, rep metrics.Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// A run keeps evaluation-only materials and read-only models, and every cell
// still reports what it reports when it is resolved from full materials with
// a trainable agent loaded or trained for it: fcfs, a model file's mrsch and a
// train:true mrsch, over two scenarios and three replicate seeds.
func TestEvaluationMaterialsMatchFullMaterials(t *testing.T) {
	sc := QuickScale()
	path := saveModelFile(t, sc, TrainRun{Kind: scenario.KindMRSch, Family: "S4"})
	spec := scenario.CampaignSpec{
		Name:      "evaluation-materials",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{mustScenario("S4"), mustScenario("S4@wtn=0.5,zipf=0.9")},
		Methods: []scenario.MethodSpec{
			{Kind: scenario.KindHeuristic},
			{Kind: scenario.KindMRSch, Model: path},
			{Kind: scenario.KindMRSch, Train: true},
		},
		Seeds: []int64{2, 1002, 2002},
	}
	opt := CampaignOptions{Workers: 2}
	r, err := OpenCampaign(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 18 {
		t.Fatalf("%d cells, want 18", len(results))
	}
	for key, m := range r.materials {
		if m.Base != nil || m.Train != nil || m.Valid != nil || len(m.Test) == 0 {
			t.Fatalf("materials %s keep base %d, train %d, valid %d and test %d jobs; want the test split alone",
				key, len(m.Base), len(m.Train), len(m.Valid), len(m.Test))
		}
	}
	for key, model := range r.models {
		if model.mrsch == nil || model.scalarRL != nil {
			t.Fatalf("model %s is held as %+v, want a read-only MRSch model (core.Model) alone", key, model)
		}
	}

	// The oracle resolves each cell from full materials prepared for it, with
	// a trainable agent that weights are loaded into or that is trained for it.
	trained := map[int64]*core.MRSch{} // by seed: both scenarios are family S4
	for _, res := range results {
		cell := res.Cell
		full, err := PrepareFor(r.replicateScale(cell), cell.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		sys := full.SystemFor(cell.Scenario)
		var policy *sched.WindowPolicy
		switch {
		case cell.Method.Kind == scenario.KindHeuristic:
			policy = FCFSPolicy(full.Scale.Window)
		case cell.Method.Model != "":
			agent := core.New(sys, full.Scale.runOptions(TrainRun{Kind: scenario.KindMRSch, Family: "S4"}))
			weights, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := agent.Load(bytes.NewReader(weights)); err != nil {
				t.Fatal(err)
			}
			policy = agent.Model().Evaluator().Policy()
		default:
			agent := trained[cell.Seed]
			if agent == nil {
				model, err := Train(full, TrainRun{Kind: scenario.KindMRSch, Family: "S4"}, opt)
				if err != nil {
					t.Fatal(err)
				}
				agent, trained[cell.Seed] = model.MRSch, model.MRSch
			}
			policy = agent.Model().Evaluator().Policy()
		}
		jobs, err := full.WorkloadSpec(cell.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evaluateOwned(sys, policy, jobs, cell.Method.DisplayName(), cell.Scenario.Name, sys.ResourceIndex("power_kw"))
		if err != nil {
			t.Fatal(err)
		}
		if want.Jobs == 0 {
			t.Fatalf("%s completed no jobs", cell.Label())
		}
		if got, w := reportDigest(t, res.Report), reportDigest(t, want); got != w {
			t.Errorf("%s (seed %d): the run reports %s, full materials %s", cell.Label(), cell.Seed, got, w)
		}
	}
}

// A family model trained after an fcfs cell of the same seed has resolved,
// and evaluated, on the run's evaluation-only materials is trained on full
// materials prepared afresh: the store file is byte for byte the weights a
// training on freshly prepared materials saves.
func TestTrainedAfterFCFSCellMatchesFreshMaterials(t *testing.T) {
	sc := QuickScale()
	spec := scenario.CampaignSpec{
		Name:      "train-after-fcfs",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{mustScenario("S4")},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}, {Kind: scenario.KindMRSch, Train: true}},
		Seeds:     []int64{7},
	}
	opt := CampaignOptions{Workers: 2, ModelDir: t.TempDir()}
	r, err := OpenCampaign(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := r.Cells()
	if cells[0].Method.Kind != scenario.KindHeuristic || !cells[1].Method.Train {
		t.Fatalf("cells %s, %s: want fcfs first", cells[0].Label(), cells[1].Label())
	}
	if err := r.ResolveCell(cells[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EvalCell(cells[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.ResolveCell(cells[1]); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(r.storePath(cells[1]))
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := PrepareFor(r.replicateScale(cells[1]), cells[1].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(fresh, TrainRun{Kind: scenario.KindMRSch, Family: "S4"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := model.MRSch.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want.Bytes()) {
		t.Fatalf("the store holds %d bytes that differ from the %d a training on fresh materials saves", len(stored), want.Len())
	}
}

// A run's materials evaluate and do not train: every way into a curriculum
// or a validation workload fails loudly instead of drawing from a split that
// is not there.
func TestEvaluationMaterialsRefuseTraining(t *testing.T) {
	sc := tinyScale()
	spec := scenario.CampaignSpec{
		Name:      "evaluation-only",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{mustScenario("S4")},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
	}
	r, err := OpenCampaign(spec, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cell := r.Cells()[0]
	if err := r.ResolveCell(cell); err != nil {
		t.Fatal(err)
	}
	m := r.materialsOf(cell)
	if _, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: "S4"}, CampaignOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "evaluation-only") {
		t.Fatalf("Train on a run's materials: %v, want an evaluation-only error", err)
	}
	if _, err := m.powerCurriculum("S6"); err == nil {
		t.Fatal("powerCurriculum on a run's materials did not fail")
	}
	if _, err := m.ValidationWorkload("S4"); err == nil {
		t.Fatal("ValidationWorkload on a run's materials did not fail")
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "evaluation-only") {
				t.Fatalf("CurriculumSets on a run's materials: recovered %v, want a panic naming evaluation-only materials", r)
			}
		}()
		m.CurriculumSets("S4")
	}()
	if jobs := m.Workload("S4"); len(jobs) != len(MustPrepare(sc).Workload("S4")) {
		t.Fatalf("the run's materials build %d S4 jobs, full materials %d", len(jobs), len(MustPrepare(sc).Workload("S4")))
	}
}

// instant is one decision's inputs as an MRSch evaluator reads them.
type instant struct {
	state, meas, goal []float64
	valid             int
}

// sampleInstants replays the quick S4 workload under FCFS and keeps the
// encoded inputs of up to max instants where a waiting job fits: the ones an
// evaluator runs its networks on.
func sampleInstants(t *testing.T, m *Materials, enc *encode.Config, max int) []instant {
	t.Helper()
	var out []instant
	rec := sched.PickerFunc(func(ctx *sched.PickContext) int {
		if len(out) < max && ctx.Startable() {
			out = append(out, instant{
				state: enc.Encode(ctx),
				meas:  append([]float64(nil), ctx.Usage...),
				goal:  core.GoalVector(ctx),
				valid: len(ctx.Window),
			})
		}
		return 0
	})
	s := sim.New(m.Scale.System(), sched.NewWindowPolicy(rec, m.Scale.Window))
	if err := s.Load(m.Workload("S4")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) < 50 {
		t.Fatalf("only %d startable instants sampled", len(out))
	}
	return out
}

// The evaluators of a model, built and run on two goroutines at once, pick
// what Agent.Act of a trainable agent with the same weights picks, whether
// the model is the trained agent's own (core.MRSch.Model) or one loaded from
// its model file (core.LoadModel); a model saves the bytes it was built from,
// and building an evaluator of it costs a small fraction of the first layer
// it reads, because every evaluator reads the model's one packed copy.
func TestModelEvaluatorsPickLikeAct(t *testing.T) {
	sc := QuickScale()
	m := MustPrepare(sc)
	agent, _, err := TrainMRSch(m, "S4", false)
	if err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := agent.Save(&weights); err != nil {
		t.Fatal(err)
	}
	twin := NewMRSchUntrained(sc, false)
	if err := twin.Load(bytes.NewReader(weights.Bytes())); err != nil {
		t.Fatal(err)
	}
	instants := sampleInstants(t, m, &agent.Enc, 400)
	want := make([]int, len(instants))
	for i, in := range instants {
		want[i] = twin.Agent.Act(in.state, in.meas, in.goal, in.valid, false)
	}
	loaded, err := core.LoadModel(sc.System(), sc.runOptions(TrainRun{Kind: scenario.KindMRSch, Family: "S4"}), bytes.NewReader(weights.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for name, model := range map[string]*core.Model{"the agent's model": agent.Model(), "the loaded model": loaded} {
		var saved bytes.Buffer
		if err := model.DFP.Save(&saved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), weights.Bytes()) {
			t.Fatalf("%s saves other bytes than the agent", name)
		}
		errs := make(chan error, 2)
		for g := 0; g < 2; g++ {
			go func() {
				ev := model.DFP.Evaluator()
				for i := range instants {
					idx := (i + g*len(instants)/2) % len(instants) // the two start apart
					in := instants[idx]
					if got := ev.Act(in.state, in.meas, in.goal, in.valid); got != want[idx] {
						errs <- fmt.Errorf("%s, evaluator %d, instant %d: picks %d, Agent.Act %d", name, g, idx, got, want[idx])
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < 2; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}

		first := agent.Agent.Params()[0] // the state module's first Dense weights
		in := instants[0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const builds = 8
		for i := 0; i < builds; i++ {
			model.DFP.Evaluator().Act(in.state, in.meas, in.goal, in.valid)
		}
		runtime.ReadMemStats(&after)
		if per, layer := (after.TotalAlloc-before.TotalAlloc)/builds, uint64(8*len(first.Value)); per > layer/4 {
			t.Fatalf("an evaluator of %s allocates %d bytes to its first decision; its first layer is %d: it packed a copy of its own", name, per, layer)
		}
	}
}
