package experiments

import (
	"bytes"
	"testing"
)

func TestAblationGoalDynamicVsFixed(t *testing.T) {
	c := mustRun(t, tinyScale(), CampaignOptions{})
	rows, err := AblationGoal(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "dynamic goal (Eq. 1)" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Report.Jobs == 0 {
			t.Fatalf("%s: no jobs completed", r.Name)
		}
	}
	// The FixedGoal must have been reset after the ablation.
	agent, _, err := c.FamilyModel("S5")
	if err != nil {
		t.Fatal(err)
	}
	if agent.FixedGoal != nil {
		t.Fatal("ablation leaked FixedGoal into the shared agent")
	}
	var buf bytes.Buffer
	FprintAblation(&buf, "goal", rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationStateNets(t *testing.T) {
	r := mustRun(t, tinyScale(), CampaignOptions{})
	rows, err := AblationStateNets(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Report.Jobs == 0 {
			t.Fatalf("%s completed no jobs", r.Name)
		}
	}
}

func TestAblationWindowSweep(t *testing.T) {
	r := mustRun(t, tinyScale(), CampaignOptions{})
	rows, err := AblationWindow(r, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Name != "window 1" || rows[1].Name != "window 4" {
		t.Fatalf("labels: %s / %s", rows[0].Name, rows[1].Name)
	}
}

func TestAblationBackfill(t *testing.T) {
	r := mustRun(t, tinyScale(), CampaignOptions{})
	rows, err := AblationBackfill(r)
	if err != nil {
		t.Fatal(err)
	}
	on, off := rows[0].Report, rows[1].Report
	// Backfilling must not hurt node utilization (EASY's whole point).
	if on.Utilization[0] < off.Utilization[0]-1e-9 {
		t.Fatalf("backfill reduced utilization: %v vs %v", on.Utilization[0], off.Utilization[0])
	}
}

func TestAblationPickers(t *testing.T) {
	r := mustRun(t, tinyScale(), CampaignOptions{})
	rows, err := AblationPickers(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d pickers", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Report.Jobs == 0 {
			t.Fatalf("%s starved the workload", r.Name)
		}
	}
	for _, want := range []string{"FCFS", "Tetris packing", "SJF", "LargestFirst"} {
		if !names[want] {
			t.Fatalf("missing picker %s", want)
		}
	}
}
