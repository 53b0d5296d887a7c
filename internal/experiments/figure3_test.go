package experiments

import (
	"bytes"
	"testing"
)

func TestFigure3BothVariantsEvaluate(t *testing.T) {
	results, rows := figureCells(t, "fig3")
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 || r[0].Cell.Method.CNN || !r[1].Cell.Method.CNN {
			t.Fatalf("%s: want the MLP cell then the CNN cell, got %+v", r[0].Cell.Scenario.Name, r)
		}
		mlp, cnn := r[0].Report, r[1].Report
		if mlp.Method != "MLP" || cnn.Method != "CNN" {
			t.Fatalf("%s: variants labelled %q / %q", mlp.Workload, mlp.Method, cnn.Method)
		}
		if mlp.Jobs == 0 || cnn.Jobs == 0 {
			t.Fatalf("%s: incomplete runs", mlp.Workload)
		}
		if mlp.Jobs != cnn.Jobs {
			t.Fatalf("%s: variants saw different workloads", mlp.Workload)
		}
	}
	var buf bytes.Buffer
	FprintFigure3(&buf, results)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

// The figures share one run, and the run trains a family model once however
// many figures read it: Figures 3, 5-7, 8, 9 and the ablations together need
// the MLP, the CNN and the scalar-RL model of each of S1-S5 and nothing else
// (the goal ablation and Figures 8/9 read the MLP models of Figures 3 and 5).
func TestCampaignCachesAgents(t *testing.T) {
	trained := map[string]int{}
	r := mustRun(t, tinyScale(), CampaignOptions{OnModel: func(family, action, _ string) {
		if action != "trained" {
			t.Errorf("family %s resolved by %q with no store and no model file", family, action)
		}
		trained[family]++
	}})
	want := map[string]bool{"3": true, "5": true, "8": true, "9": true, "ablations": true}
	results := map[string][]CellResult{}
	for _, fig := range Figures(tinyScale().ScaleSpec) {
		if want[fig.Name] {
			renderFigure(t, r, fig, results)
		}
	}
	if len(trained) != 5 {
		t.Fatalf("trained families %v, want S1-S5", trained)
	}
	for family, n := range trained {
		if n != 3 {
			t.Fatalf("family %s trained %d models, want 3 (MLP, CNN, scalar RL): a figure retrained what another had", family, n)
		}
	}
}
