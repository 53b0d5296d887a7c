package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// The two frozen files are the output of the commit before the figures
// became campaigns, at `-scale tiny`, seed 1:
//
//	mrsch-exp -scale tiny -fig all                        > parent-fig-all-tiny.txt
//	mrsch-exp -scale tiny -campaign paper -report FILE      (parent-campaign-paper-tiny.txt)
//
// That commit evaluated the figures through a harness of its own, which
// disagreed with the campaign path on two definitions: it ran scalar RL by
// argmax and seeded the Optimization method's genetic algorithm differently
// per figure, where a campaign cell samples the scalar-RL policy. The
// campaign's definitions won. Later the genetic algorithm gave way to the
// exact Pareto knee it approximated (sched.Pareto), which draws nothing and
// moved every row it schedules: the Optimization rows, the window sweep's
// rows but window 1's (a one-job window has one pick) and the paper
// report's Optimization rows. What may therefore differ from the frozen
// text is declared row by row in frozenKeep; everything else must still be
// byte-equal.
var (
	frozenFigures = filepath.Join("testdata", "parent-fig-all-tiny.txt")
	frozenPaper   = filepath.Join("testdata", "parent-campaign-paper-tiny.txt")
)

// The column at which a (scenario, method) row's label ends ("  S10  Scalar
// RL   "), the width of Figure 10's trailing Kiviat-area column, and the
// width of an ablation row's label. A paper report row's label ends with
// its method's name.
const (
	methodLabelEnd = 2 + 4 + 1 + 12
	areaColumn     = 1 + 8
	ablationLabel  = 2 + 22
)

// frozenKeep returns how many leading bytes of a frozen line the new path
// must reproduce: all of them unless the row is one the change declares
// moved. block is the first line of the figure the line belongs to (of the
// paper report, for -fig sweep), section the last "Ablation —" title seen
// in the ablations block.
func frozenKeep(block, section, line string) int {
	moved := len(line) > methodLabelEnd &&
		(strings.HasPrefix(line[7:], MethodOptimize) || strings.HasPrefix(line[7:], MethodScalarRL))
	dataRow := len(line) > methodLabelEnd && strings.HasPrefix(line, "  S")
	switch {
	case strings.HasPrefix(block, "Figure 5"), strings.HasPrefix(block, "Figure 6"):
		if moved {
			return methodLabelEnd
		}
	case strings.HasPrefix(block, "Figure 7"):
		// Every axis is normalised by the best of the four methods, two of
		// which moved.
		if dataRow {
			return methodLabelEnd
		}
	case strings.HasPrefix(block, "Figure 10"):
		if moved {
			return methodLabelEnd
		}
		if dataRow {
			return len(line) - areaColumn // own metrics exact, area normalised over the moved rows
		}
	case strings.HasPrefix(block, "Campaign paper"):
		if i := strings.Index(line, MethodOptimize); i >= 0 {
			return i + len(MethodOptimize)
		}
	case strings.HasPrefix(section, "Ablation — window size sweep"):
		if strings.HasPrefix(line, "  window ") && !strings.HasPrefix(line, "  window 1 ") {
			return ablationLabel
		}
	case strings.HasPrefix(section, "Ablation — single vs per-resource state nets"):
		// The two agents now train through the rollout harness like every
		// other model, not through a serial loop of their own.
		if strings.HasPrefix(line, "  single state net") || strings.HasPrefix(line, "  per-resource nets") {
			return ablationLabel
		}
	}
	return len(line)
}

// blocks splits figure output into its blank-line-separated figures.
func blocks(text string) [][]string {
	var out [][]string
	for _, b := range strings.Split(strings.TrimSpace(text), "\n\n") {
		out = append(out, strings.Split(b, "\n"))
	}
	return out
}

func TestFiguresMatchFrozenParentOutput(t *testing.T) {
	frozen, err := os.ReadFile(frozenFigures)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := os.ReadFile(frozenPaper)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the banner and the timing line: what is left is the figures.
	want := blocks(string(frozen))
	want = want[1 : len(want)-1]

	trained := 0
	sc := TinyScale()
	r := mustRun(t, sc, CampaignOptions{OnModel: func(string, string, string) { trained++ }})
	results := map[string][]CellResult{}
	var got [][]string
	for _, fig := range Figures(sc.ScaleSpec) {
		got = append(got, strings.Split(strings.TrimRight(renderFigure(t, r, fig, results), "\n"), "\n"))
	}
	// S1-S5 as MLP, CNN and scalar RL, S6-S10 as MLP and scalar RL.
	if trained != 25 {
		t.Errorf("all figures trained %d family models, want 25", trained)
	}

	if len(got) != len(want) {
		t.Fatalf("%d figures rendered, %d frozen", len(got), len(want))
	}
	movedRows := 0
	for i, block := range want {
		if strings.HasPrefix(block[0], "Scenario sweep") {
			// -fig sweep is the paper campaign now and prints its table.
			block = strings.Split(strings.TrimRight(string(paper), "\n"), "\n")
		}
		if len(got[i]) != len(block) {
			t.Errorf("%s: %d lines, frozen %d", block[0], len(got[i]), len(block))
			continue
		}
		section := ""
		for j, line := range block {
			if strings.HasPrefix(line, "Ablation —") {
				section = line
			}
			keep := frozenKeep(block[0], section, line)
			if len(got[i][j]) != len(line) || got[i][j][:keep] != line[:keep] {
				name := block[0]
				if section != "" {
					name = section
				}
				t.Errorf("%s, line %d:\n   got %q\nfrozen %q (first %d bytes pinned)", name, j+1, got[i][j], line, keep)
			}
			if got[i][j] != line {
				movedRows++
			}
		}
	}
	t.Logf("%d declared rows differ from the frozen output", movedRows)
}

// A failed cell carries a zero Report (EvalCell returns it on purpose):
// every grid renderer must label it instead of indexing its utilizations.
func TestFigureRenderersMarkFailedCells(t *testing.T) {
	report := func(c scenario.Cell) metrics.Report {
		rep := metrics.Report{
			Method: c.Method.DisplayName(), Workload: c.Scenario.Name, Jobs: 10,
			Utilization: []float64{0.5, 0.4}, AvgWaitSec: 1800, AvgSlowdown: 2, AvgSysPowerKW: 7,
		}
		if c.Scenario.Power {
			rep.Utilization = append(rep.Utilization, 0.3)
		}
		return rep
	}
	for _, fig := range Figures(tinyScale().ScaleSpec) {
		if fig.Render == nil {
			continue
		}
		cells := fig.Spec.Expand()
		results := make([]CellResult, len(cells))
		for i, c := range cells {
			results[i] = CellResult{Cell: c, Report: report(c)}
		}
		results[1].Report = metrics.Report{} // the second cell of the first scenario failed
		var buf bytes.Buffer
		fig.Render(&buf, results)
		if n := strings.Count(buf.String(), "(failed)"); n != 1 {
			t.Errorf("figure %s: %d rows marked (failed), want 1:\n%s", fig.Name, n, buf.String())
		}
		if last := cells[len(cells)-1].Scenario.Name; !strings.Contains(buf.String(), "  "+last+" ") {
			t.Errorf("figure %s: rows after the failed cell are missing:\n%s", fig.Name, buf.String())
		}
	}
}
