package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// Ablations of the design choices DESIGN.md calls out. Each returns labelled
// reports on a fixed workload so the effect of one mechanism is isolated:
//
//   - dynamic vs fixed goal vector (§III-B — the heart of MRSch)
//   - single state network vs one per resource (§III-A design discussion)
//   - window size (§III-C: W=10 in the paper)
//   - EASY backfilling on/off (§III-C)
//   - list-scheduling picker family (related-work context: FCFS, Tetris,
//     SJF, LargestFirst)

// AblationRow is one labelled configuration's outcome.
type AblationRow struct {
	Name   string
	Report metrics.Report
}

// policyVariant is one labelled scheduling policy of an ablation that
// varies the policy itself rather than the method behind it.
type policyVariant struct {
	name   string
	policy *sched.WindowPolicy
}

// ablatePolicies replays the base materials' workload through each variant.
func ablatePolicies(r *CampaignRun, wl string, variants []policyVariant) ([]AblationRow, error) {
	m, err := r.baseMaterials()
	if err != nil {
		return nil, err
	}
	jobs := m.Workload(wl)
	var rows []AblationRow
	for _, v := range variants {
		rep, err := Evaluate(m.Scale.System(), v.policy, jobs, v.name, wl, -1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: v.name, Report: rep})
	}
	return rows, nil
}

// AblationGoal compares the run's S5 family model with its own Eq. (1)
// dynamic goal against the same weights forced to a fixed uniform goal.
// The gap is the isolated value of dynamic resource prioritizing.
func AblationGoal(r *CampaignRun) ([]AblationRow, error) {
	agent, _, err := r.FamilyModel("S5")
	if err != nil {
		return nil, err
	}
	fixed := *agent // same weights; the shared agent keeps its dynamic goal
	fixed.FixedGoal = []float64{0.5, 0.5}
	return ablatePolicies(r, "S5", []policyVariant{
		{"dynamic goal (Eq. 1)", agent.Evaluator().Policy()},
		{"fixed goal (0.5/0.5)", fixed.Evaluator().Policy()},
	})
}

// AblationStateNets trains two otherwise-identical agents on S4: one with
// MRSch's single state network, one with the per-resource networks the
// paper rejects (job info encoded R times).
func AblationStateNets(r *CampaignRun) ([]AblationRow, error) {
	m, err := r.trainingMaterials(scenario.Cell{})
	if err != nil {
		return nil, err
	}
	var variants []policyVariant
	for _, v := range []struct {
		name string
		per  bool
	}{
		{"single state net", false},
		{"per-resource nets", true},
	} {
		t, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: "S4", Seed: m.Scale.Seed + 47, PerResourceNets: v.per}, r.opt)
		if err != nil {
			return nil, err
		}
		variants = append(variants, policyVariant{v.name, t.MRSch.Model().Evaluator().Policy()})
	}
	return ablatePolicies(r, "S4", variants)
}

// AblationWindow sweeps the scheduling window size with the Optimization
// picker (training-free and deterministic: the sweep isolates the window).
func AblationWindow(r *CampaignRun, sizes []int) ([]AblationRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 5, 10, 20}
	}
	var variants []policyVariant
	for _, w := range sizes {
		variants = append(variants, policyVariant{fmt.Sprintf("window %d", w), sched.NewWindowPolicy(sched.Pareto{}, w)})
	}
	return ablatePolicies(r, "S4", variants)
}

// AblationBackfill runs FCFS with and without EASY backfilling.
func AblationBackfill(r *CampaignRun) ([]AblationRow, error) {
	off := FCFSPolicy(r.baseScale.Window)
	off.Backfill = false
	return ablatePolicies(r, "S4", []policyVariant{
		{"EASY backfilling on", FCFSPolicy(r.baseScale.Window)},
		{"EASY backfilling off", off},
	})
}

// AblationPickers compares the list-scheduling picker family inside the
// shared framework.
func AblationPickers(r *CampaignRun) ([]AblationRow, error) {
	var variants []policyVariant
	for _, pk := range []struct {
		name string
		p    sched.Picker
	}{
		{"FCFS", sched.FCFS{}},
		{"Tetris packing", sched.Tetris{}},
		{"SJF", sched.SJF{}},
		{"LargestFirst", sched.LargestFirst{}},
	} {
		variants = append(variants, policyVariant{pk.name, sched.NewWindowPolicy(pk.p, r.baseScale.Window)})
	}
	return ablatePolicies(r, "S4", variants)
}

// fprintAblations runs and renders the five ablations (mrsch-exp -fig
// ablations).
func fprintAblations(w io.Writer, r *CampaignRun) error {
	for _, a := range []struct {
		title string
		run   func(*CampaignRun) ([]AblationRow, error)
	}{
		{"dynamic vs fixed goal vector (S5)", AblationGoal},
		{"single vs per-resource state nets (S4)", AblationStateNets},
		{"window size sweep (S4)", func(r *CampaignRun) ([]AblationRow, error) { return AblationWindow(r, nil) }},
		{"EASY backfilling on/off (S4)", AblationBackfill},
		{"list-scheduling pickers (S4)", AblationPickers},
	} {
		rows, err := a.run(r)
		if err != nil {
			return err
		}
		FprintAblation(w, a.title, rows)
	}
	return nil
}

// FprintAblation renders ablation rows as a metric table.
func FprintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation — %s\n", title)
	fmt.Fprintf(w, "  %-22s %10s %10s %10s %12s\n", "", "node-util", "bb-util", "wait h", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %9.1f%% %9.1f%% %10.2f %12.2f\n",
			r.Name, r.Report.Utilization[0]*100, r.Report.Utilization[1]*100,
			r.Report.AvgWaitHours(), r.Report.AvgSlowdown)
	}
}
