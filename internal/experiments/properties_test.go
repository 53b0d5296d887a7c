package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// checkedRun replays jobs on sys under wp and fails the test on the first
// round that breaks a property the simulator and the window driver promise,
// whatever the picker:
//
//   - the cluster's conservation invariants hold after every round;
//   - EASY's rule, at the rule's own level: the jobs a round's backfill
//     started that end, by walltime, after the shadow time computed when the
//     round reserved fit, together, the spare capacity computed then;
//   - at the end every job ran once: submit <= start, end = start + runtime,
//     one entry in Finished.
//
// It observes by wrapping wp's Picker, restored on return, in one that reads
// each pick clamped as the round clamps it, and by wrapping wp in a policy
// that notes the queue before the round and checks the cluster after it. It returns the smallest reservation-time
// shadow of every job that was reserved, and how many jobs backfill started,
// and of those how many borrowed spare capacity.
func checkedRun(t *testing.T, label string, sys cluster.Config, wp *sched.WindowPolicy, jobs []*job.Job) (shadows map[*job.Job]float64, backfilled, borrowed int) {
	t.Helper()
	shadows = map[*job.Job]float64{}
	var (
		picked   = map[*job.Job]bool{}
		reserved *job.Job
		shadow   float64
		extra    []int
		waiting  []*job.Job
	)
	inner := wp.Picker
	defer func() { wp.Picker = inner }()
	wp.Picker = sched.PickerFunc(func(ctx *sched.PickContext) int {
		pick := inner.Pick(ctx)
		if pick < 0 || pick >= len(ctx.Window) {
			pick = 0
		}
		j := ctx.Window[pick]
		picked[j] = true
		if !ctx.Cluster.CanFit(j.Demand) { // the round's reservation
			reserved = j
			shadow, extra = sched.Shadow(ctx.Cluster, j.Demand, ctx.Now)
			if old, seen := shadows[j]; !seen || shadow < old {
				shadows[j] = shadow
			}
		}
		return pick
	})
	var failure string
	policy := sim.PolicyFunc(func(s *sim.Simulator) {
		waiting = append(waiting[:0], s.Queue()...)
		clear(picked)
		reserved = nil
		wp.OnSchedule(s)
		if reserved == nil || failure != "" {
			return
		}
		charged := make([]int, len(extra))
		for _, j := range waiting {
			if j.State != job.Running || picked[j] {
				continue
			}
			backfilled++
			if s.Now()+j.Walltime <= shadow {
				continue
			}
			borrowed++
			for r, d := range j.Demand {
				charged[r] += d
			}
		}
		if !cluster.Fits(charged, extra) {
			failure = fmt.Sprintf("t=%v: backfill ran %v past the shadow time %v, with %v spare then", s.Now(), charged, shadow, extra)
		}
	})
	s := sim.New(sys, sim.PolicyFunc(func(s *sim.Simulator) {
		policy(s)
		if err := s.Cluster().CheckInvariants(); err != nil && failure == "" {
			failure = fmt.Sprintf("t=%v: %v", s.Now(), err)
		}
	}))
	if err := s.Load(jobs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if failure != "" {
		t.Fatalf("%s: %s", label, failure)
	}
	ran := map[*job.Job]int{}
	for _, j := range s.Finished() {
		ran[j]++
	}
	for _, j := range jobs {
		if ran[j] != 1 || j.State != job.Finished || j.Start < j.Submit || j.End != j.Start+j.Runtime {
			t.Fatalf("%s: job %d finished %d times, state %v, submit %v, start %v, end %v, runtime %v",
				label, j.ID, ran[j], j.State, j.Submit, j.Start, j.End, j.Runtime)
		}
	}
	if len(s.Finished()) != len(jobs) {
		t.Fatalf("%s: %d finished of %d jobs", label, len(s.Finished()), len(jobs))
	}
	return shadows, backfilled, borrowed
}

// propertyRun opens a tiny-scale campaign over the given scenarios under all
// four methods, every trained method training at the test scale.
func propertyRun(t *testing.T, scenarios []scenario.ScenarioSpec) *CampaignRun {
	t.Helper()
	var methods []scenario.MethodSpec
	for _, k := range scenario.Kinds() {
		methods = append(methods, scenario.MethodSpec{Kind: k, Train: k.Trained()})
	}
	r, err := OpenCampaign(scenario.CampaignSpec{Name: "properties", Scale: tinyScale().ScaleSpec, Scenarios: scenarios, Methods: methods},
		CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every builtin scenario under every picker — FCFS with EASY, the window
// policy over a trained MRSch, the Pareto knee and Scalar RL — keeps the properties
// checkedRun holds, and under FCFS the outcome EASY promises: a reserved job
// starts no later than the shadow time computed when it was reserved. That
// needs walltimes that bound runtimes, which every builtin workload has (the
// generator draws them so, the noise axis clamps to it), and the test checks.
//
// At these scales no system's demand keys clamp, so the backfill scan's full
// comparison (sim's nextBackfill) confirms every job its keys stop at. The refusal it exists for —
// a lane too narrow for its capacity letting through a job that does not fit
// — happens in a twin of each power-capped scenario whose power is counted in
// units 2^20 times smaller: the same schedule, to the second, under FCFS and a
// seeded random picker.
func TestPropertiesOverEveryScenarioAndPicker(t *testing.T) {
	r := propertyRun(t, scenario.Builtins())
	var backfilled, borrowed, reserved int
	for _, cell := range r.Cells() {
		wp, err := r.Policy(cell)
		if err != nil {
			t.Fatal(err)
		}
		m, sp := r.materialsOf(cell), cell.Scenario
		jobs, err := m.WorkloadSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		label := cell.Label()
		shadows, b, bx := checkedRun(t, label, m.SystemFor(sp), wp, jobs)
		backfilled, borrowed = backfilled+b, borrowed+bx
		if cell.Method.Kind != scenario.KindHeuristic {
			continue
		}
		for _, j := range jobs {
			if j.Walltime < j.Runtime {
				t.Fatalf("%s: job %d's walltime %v is under its runtime %v", label, j.ID, j.Walltime, j.Runtime)
			}
		}
		for j, shadow := range shadows {
			if j.Start > shadow {
				t.Fatalf("%s: reserved job %d started at %v, after the shadow time %v computed when it was reserved", label, j.ID, j.Start, shadow)
			}
		}
		reserved += len(shadows)
		if sp.Power {
			checkUnitScaledTwin(t, label, m.SystemFor(sp), jobs, m.Scale.Window)
		}
	}
	t.Logf("%d cells: backfill started %d jobs, %d of them on spare capacity; FCFS reserved %d jobs", len(r.Cells()), backfilled, borrowed, reserved)
	if backfilled == 0 || borrowed == 0 || reserved == 0 {
		t.Fatal("the matrix never backfilled, never borrowed spare capacity or never reserved: it tests nothing")
	}
}

// checkUnitScaledTwin replays jobs twice more, on sys and on a twin of sys
// whose last resource is counted in units 2^20 times smaller — a capacity no
// lane holds, so the keys can let through jobs the comparison refuses — and
// requires the same start times from both, under FCFS and a seeded random
// picker.
func checkUnitScaledTwin(t *testing.T, label string, sys cluster.Config, jobs []*job.Job, window int) {
	t.Helper()
	const unit = 1 << 20
	twin := sys
	last := len(sys.Capacities) - 1
	twin.Capacities = append([]int(nil), sys.Capacities...)
	twin.Capacities[last] *= unit
	if twin.Capacities[last] < 1<<20 {
		t.Fatalf("%s: the twin's capacity %d fits a three-resource lane", label, twin.Capacities[last])
	}
	pickers := map[string]func() sched.Picker{
		"fcfs": func() sched.Picker { return sched.FCFS{} },
		"random": func() sched.Picker {
			pick := rand.New(rand.NewSource(int64(len(jobs))))
			return sched.PickerFunc(func(ctx *sched.PickContext) int { return pick.Intn(len(ctx.Window)) })
		},
	}
	for name, picker := range pickers {
		var starts [2][]float64
		for side, cfg := range []cluster.Config{sys, twin} {
			clones := job.CloneAll(jobs)
			if side == 1 {
				for _, j := range clones {
					j.Demand[last] *= unit
				}
			}
			checkedRun(t, label+" "+name, cfg, sched.NewWindowPolicy(picker(), window), clones)
			for _, j := range clones {
				starts[side] = append(starts[side], j.Start)
			}
		}
		for i := range starts[0] {
			if starts[0][i] != starts[1][i] {
				t.Fatalf("%s %s: job %d started at %v, at %v with its %s counted in units 2^20 times smaller",
					label, name, jobs[i].ID, starts[0][i], starts[1][i], sys.Resources[last])
			}
		}
	}
}

// Shifting every submit time of a workload whose times are whole seconds by
// a whole number of seconds shifts every event by exactly that much, so every
// report must come out the same to the bit, under every picker. The workloads
// are the ingested SWF traces T1-T5 with their submits rounded to the second:
// the traces' times are whole seconds, but LoadTraceBase rescales the gaps.
func TestReportsAreInvariantUnderTimeShift(t *testing.T) {
	r := propertyRun(t, scenario.TraceBuiltins())
	for _, cell := range r.Cells() {
		if err := r.ResolveCell(cell); err != nil {
			t.Fatal(err)
		}
		m, sp := r.materialsOf(cell), cell.Scenario
		jobs, err := m.WorkloadSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			j.Submit = math.Round(j.Submit)
			if j.Runtime != math.Trunc(j.Runtime) || j.Walltime != math.Trunc(j.Walltime) {
				t.Fatalf("%s: job %d has runtime %v, walltime %v: not whole seconds", cell.Label(), j.ID, j.Runtime, j.Walltime)
			}
		}
		var want string
		for k, delta := range []float64{0, 1, 7*86400 + 13} {
			shifted := job.CloneAll(jobs)
			for _, j := range shifted {
				j.Submit += delta
			}
			wp, err := r.Policy(cell)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := evaluateOwned(m.SystemFor(sp), wp, shifted, cell.Method.DisplayName(), sp.Name, -1)
			if err != nil {
				t.Fatal(err)
			}
			// %v prints the shortest decimal that round-trips: equal strings
			// are equal bits.
			got := fmt.Sprintf("%+v", rep)
			if k == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: shifting every submit by %v s changed the report\n before: %s\n after:  %s", cell.Label(), delta, want, got)
			}
		}
	}
}

// An evaluating MRSch actor answers a moot instant (no waiting job fits:
// sched.PickContext.Startable) without its model, so its picks there are not
// a recording actor's; its schedule must be. Tiny S1-S5 cells run through an
// evaluator and through a recording actor, each Reset to the same seed,
// greedy and exploring: every job starts at the same time, every run meets moot
// instants, and at some of them the two actors pick differently.
func TestEvaluatorSchedulesLikeRecorder(t *testing.T) {
	var specs []scenario.ScenarioSpec
	for _, name := range []string{"S1", "S2", "S3", "S4", "S5"} {
		sp, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	r, err := OpenCampaign(scenario.CampaignSpec{Name: "evaluator", Scale: tinyScale().ScaleSpec, Scenarios: specs,
		Methods: []scenario.MethodSpec{{Kind: scenario.KindMRSch, Train: true}}}, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	differ := map[float64]int{} // picks that differ, by epsilon
	for _, cell := range r.Cells() {
		if err := r.ResolveCell(cell); err != nil {
			t.Fatal(err)
		}
		m, sp := r.materialsOf(cell), cell.Scenario
		model := r.models[r.modelKey(cell)].mrsch
		twin := trainableTwin(t, m.Scale, model)
		for _, eps := range []float64{0, 0.3} {
			var (
				starts [2][]float64
				picks  [2][]int
				moot   int
			)
			for side, evaluator := range []bool{true, false} {
				actor := model.Evaluator()
				if !evaluator {
					actor, _ = twin.Actor()
				}
				actor.Reset(m.Scale.Seed+9000+int64(cell.Index), eps)
				picker := sched.PickerFunc(func(ctx *sched.PickContext) int {
					if evaluator && !ctx.Startable() {
						moot++
					}
					pick := actor.Pick(ctx)
					picks[side] = append(picks[side], pick)
					return pick
				})
				jobs, err := m.WorkloadSpec(sp)
				if err != nil {
					t.Fatal(err)
				}
				s := sim.New(m.SystemFor(sp), sched.NewWindowPolicy(picker, model.Enc.Window))
				if err := s.Load(jobs); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs {
					starts[side] = append(starts[side], j.Start)
				}
			}
			label := fmt.Sprintf("%s eps %v", cell.Label(), eps)
			for i := range starts[0] {
				if starts[0][i] != starts[1][i] {
					t.Fatalf("%s: job %d starts at %v under the evaluator, %v under the recording actor", label, i, starts[0][i], starts[1][i])
				}
			}
			n := 0
			for i := range picks[0] {
				if picks[0][i] != picks[1][i] {
					n++
				}
			}
			t.Logf("%s: %d picks, %d moot, %d picked otherwise", label, len(picks[0]), moot, n)
			if moot == 0 {
				t.Fatalf("%s: no moot instant: the cell tests nothing", label)
			}
			differ[eps] += n
		}
	}
	for eps, n := range differ {
		if n == 0 {
			t.Fatalf("eps %v: the evaluator never picked otherwise than the recording actor", eps)
		}
	}
}

// trainableTwin returns an agent built like the run's MRSch agents on sc's
// system that holds the model's weights: a recording actor needs one.
func trainableTwin(t *testing.T, sc Scale, model *core.Model) *core.MRSch {
	t.Helper()
	var weights bytes.Buffer
	if err := model.DFP.Save(&weights); err != nil {
		t.Fatal(err)
	}
	agent := core.New(sc.System(), sc.runOptions(TrainRun{Kind: scenario.KindMRSch}))
	if err := agent.Load(&weights); err != nil {
		t.Fatal(err)
	}
	return agent
}
