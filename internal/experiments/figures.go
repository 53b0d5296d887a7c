package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// WorkloadNames are the Table III scenarios S1-S5 in plotting order, read
// from the scenario registry.
func WorkloadNames() []string {
	var names []string
	for _, sp := range scenario.Builtins() {
		if !sp.Power {
			names = append(names, sp.Name)
		}
	}
	return names
}

// Figure is one entry of the paper's evaluation as mrsch-exp -fig names it.
// A grid figure renders the cells of a builtin campaign, however they were
// computed — in process, from the model store, or by distributed workers; a
// study is an ordinary function of the process's campaign run, from which it
// takes base materials and family models.
type Figure struct {
	Name string
	// Spec is the campaign whose results Render tabulates. A study has none
	// (Spec.Name is empty); Study runs instead.
	Spec   scenario.CampaignSpec
	Render func(w io.Writer, results []CellResult)
	Study  func(w io.Writer, r *CampaignRun) error
}

// Figures lists the figures at a sizing, in the order mrsch-exp prints
// them. Figures 5, 6 and 7 are three renderings of one campaign, and
// "sweep" is the paper campaign under its ordinary cell table.
func Figures(scale scenario.ScaleSpec) []Figure {
	grid := func(name, campaign string, render func(io.Writer, []CellResult)) Figure {
		spec, err := scenario.CampaignByName(campaign, scale)
		if err != nil {
			panic(err) // the names below are program constants
		}
		return Figure{Name: name, Spec: spec, Render: render}
	}
	return []Figure{
		{Name: "1", Study: study(func(*CampaignRun) (Figure1Result, error) { return Figure1() }, FprintFigure1)},
		grid("3", "fig3", FprintFigure3),
		{Name: "4", Study: study(func(r *CampaignRun) ([]Fig4Series, error) { return Figure4(r, "S4") }, FprintFigure4)},
		grid("5", "fig567", FprintFigure5),
		grid("6", "fig567", FprintFigure6),
		grid("7", "fig567", FprintFigure7),
		{Name: "8", Study: study(Figure8, FprintFigure8)},
		{Name: "9", Study: study(Figure9, FprintFigure9)},
		grid("10", "fig10", FprintFigure10),
		grid("sweep", "paper", func(w io.Writer, results []CellResult) { FprintCells(w, "paper", results) }),
		{Name: "ablations", Study: fprintAblations},
	}
}

// study pairs a bespoke computation with its renderer.
func study[T any](compute func(*CampaignRun) (T, error), render func(io.Writer, T)) func(io.Writer, *CampaignRun) error {
	return func(w io.Writer, r *CampaignRun) error {
		v, err := compute(r)
		if err != nil {
			return err
		}
		render(w, v)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Figure 1 — the motivating example (§I).

// Figure1Result compares a fixed-priority greedy schedule against the
// optimal complementary packing for the introductory four-job example.
type Figure1Result struct {
	FixedWeightMakespanH float64
	OptimalMakespanH     float64
}

// figure1Jobs reconstructs the §I example. The published figure's exact
// percentages are in an image, so we use demands that exhibit the same
// phenomenon: complementary pairs {J1,J3} and {J2,J4} finish in 2 h, while
// equal-weight greedy selection schedules {J3,J2} first and needs 3 h.
func figure1Jobs() []*job.Job {
	mk := func(id, a, b int) *job.Job {
		return &job.Job{ID: id, Submit: 0, Runtime: 3600, Walltime: 3600, Demand: []int{a, b}}
	}
	return []*job.Job{mk(1, 55, 10), mk(2, 50, 40), mk(3, 40, 60), mk(4, 50, 10)}
}

func figure1System() cluster.Config {
	return cluster.Config{Name: "fig1", Resources: []string{"A", "B"}, Capacities: []int{100, 100}}
}

// fixedWeightGreedy picks the fitting window job with the largest
// equal-weighted demand (the "fixed priority per resource" strawman of §I);
// if nothing fits it yields the heaviest job for reservation.
type fixedWeightGreedy struct{}

func (fixedWeightGreedy) Pick(ctx *sched.PickContext) int {
	best, bestScore := -1, -1.0
	fallback, fallbackScore := 0, -1.0
	for i, j := range ctx.Window {
		score := 0.0
		for r, d := range j.Demand {
			score += 0.5 * float64(d) / float64(ctx.Cluster.Capacity(r))
		}
		if score > fallbackScore {
			fallback, fallbackScore = i, score
		}
		if ctx.Cluster.CanFit(j.Demand) && score > bestScore {
			best, bestScore = i, score
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}

// Figure1 simulates the fixed-weight schedule and brute-forces the optimal
// batch packing (all jobs run one hour, so makespan = number of batches).
func Figure1() (Figure1Result, error) {
	sys := figure1System()
	jobs := figure1Jobs()
	fixed, err := Evaluate(sys, sched.NewWindowPolicy(fixedWeightGreedy{}, 4), jobs, "FixedWeight", "Fig1", -1)
	if err != nil {
		return Figure1Result{}, err
	}
	batches := optimalBatches(jobs, sys.Capacities)
	return Figure1Result{
		FixedWeightMakespanH: fixed.MakespanSec / 3600,
		OptimalMakespanH:     float64(batches),
	}, nil
}

// optimalBatches finds the minimal number of capacity-feasible batches
// covering all (equal-runtime) jobs, by exhaustive search over assignments.
// Exponential, but the example has four jobs.
func optimalBatches(jobs []*job.Job, caps []int) int {
	n := len(jobs)
	best := n
	assign := make([]int, n)
	var rec func(i, used int)
	feasible := func(batch int) bool {
		load := make([]int, len(caps))
		for k := 0; k < n; k++ {
			if assign[k] == batch {
				for r, d := range jobs[k].Demand {
					load[r] += d
					if load[r] > caps[r] {
						return false
					}
				}
			}
		}
		return true
	}
	rec = func(i, used int) {
		if used >= best {
			return
		}
		if i == n {
			best = used
			return
		}
		for b := 1; b <= used+1; b++ {
			assign[i] = b
			if feasible(b) {
				next := used
				if b > used {
					next = b
				}
				rec(i+1, next)
			}
		}
		assign[i] = 0
	}
	rec(0, 0)
	return best
}

// ---------------------------------------------------------------------------
// Figure 4 — curriculum orderings (§V-B).

// Fig4Series is one ordering's training-loss curve.
type Fig4Series struct {
	Label string
	Loss  []float64
}

// Figure4 trains six fresh agents, one per curriculum ordering, on the same
// scenario and budget, and returns their loss curves.
func Figure4(r *CampaignRun, scenarioName string) ([]Fig4Series, error) {
	m, err := r.trainingMaterials(scenario.Cell{})
	if err != nil {
		return nil, err
	}
	var out []Fig4Series
	for _, order := range Orderings() {
		t, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: scenarioName, Order: order, Seed: m.Scale.Seed + 23}, r.opt)
		if err != nil {
			return nil, err
		}
		losses := make([]float64, 0, len(t.Episodes))
		for _, ep := range t.Episodes {
			if ep.Loss >= 0 {
				losses = append(losses, ep.Loss)
			}
		}
		out = append(out, Fig4Series{Label: order.Label(), Loss: losses})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 8 and 9 — dynamic resource prioritizing (§V-D).

// GoalSample is one Eq. (1) evaluation: decision time and r_BB.
type GoalSample struct {
	T   float64
	RBB float64
}

// goalTrace replays a workload through its family model's evaluator,
// collecting the r_BB of the Eq. (1) goal vector (core.GoalVector, the goal
// the pick acts on) at every pick.
func goalTrace(r *CampaignRun, wl string) ([]GoalSample, error) {
	agent, m, err := r.FamilyModel(wl)
	if err != nil {
		return nil, err
	}
	ev := agent.Evaluator()
	var samples []GoalSample
	sampled := sched.PickerFunc(func(ctx *sched.PickContext) int {
		samples = append(samples, GoalSample{T: ctx.Now, RBB: core.GoalVector(ctx)[1]})
		return ev.Pick(ctx)
	})
	_, err = Evaluate(m.Scale.System(), sched.NewWindowPolicy(sampled, agent.Enc.Window), m.Workload(wl), MethodMRSch, wl, -1)
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// Figure8 returns the r_BB fluctuation during a 12-hour window of the S5
// run (the paper samples a random 12 hours; we take the window starting at
// one quarter of the trace for reproducibility).
func Figure8(r *CampaignRun) ([]GoalSample, error) {
	samples, err := goalTrace(r, "S5")
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("experiments: no goal samples collected")
	}
	end := samples[len(samples)-1].T
	start := end * 0.25
	windowEnd := start + 12*3600
	var out []GoalSample
	for _, s := range samples {
		if s.T >= start && s.T <= windowEnd {
			out = append(out, s)
		}
	}
	if len(out) == 0 { // short traces: return everything
		out = samples
	}
	return out, nil
}

// Fig9Row is one workload's r_BB box statistics.
type Fig9Row struct {
	Workload string
	Stats    metrics.BoxStats
}

// Figure9 computes r_BB box plots for S1-S5.
func Figure9(r *CampaignRun) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, wl := range WorkloadNames() {
		samples, err := goalTrace(r, wl)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.RBB
		}
		rows = append(rows, Fig9Row{Workload: wl, Stats: metrics.Box(vals)})
	}
	return rows, nil
}
