package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Rendering helpers: each figure gets a text table mirroring what the paper
// plots, so a run of cmd/mrsch-exp reproduces the figures as rows/series.
// The grid figures (3, 5, 6, 7, 10) are renderers over a campaign's
// []CellResult; a failed cell carries a zero Report and renders as
// "(failed)" instead of being indexed.

// byScenario splits a grid's results into its scenarios' cells: expansion is
// scenario-major, so each scenario is one run of consecutive results.
func byScenario(results []CellResult) [][]CellResult {
	var groups [][]CellResult
	for i, r := range results {
		if i == 0 || r.Cell.Scenario.Name != results[i-1].Cell.Scenario.Name {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], r)
	}
	return groups
}

// kiviatOf normalizes one scenario's completed cells against each other
// into the radar-chart rows the paper plots (1 = best per axis). A failed
// cell takes no part and gets a nil row.
func kiviatOf(group []CellResult, withPower bool) [][]float64 {
	var reports []metrics.Report
	for _, r := range group {
		if !r.failed() {
			reports = append(reports, r.Report)
		}
	}
	mat := metrics.Kiviat(reports, withPower)
	rows := make([][]float64, len(group))
	for i, r := range group {
		if !r.failed() {
			rows[i], mat = mat[0], mat[1:]
		}
	}
	return rows
}

// FprintFigure1 prints the motivating example's makespans.
func FprintFigure1(w io.Writer, r Figure1Result) {
	fmt.Fprintln(w, "Figure 1 — fixed priority vs ideal scheduling (makespan, hours)")
	fmt.Fprintf(w, "  fixed-weight greedy: %.0f h\n", r.FixedWeightMakespanH)
	fmt.Fprintf(w, "  ideal packing:       %.0f h\n", r.OptimalMakespanH)
}

// FprintFigure3 prints the MLP-vs-CNN table (four metrics per workload) from
// the fig3 campaign's cells: per scenario, the MLP cell then the CNN cell.
func FprintFigure3(w io.Writer, results []CellResult) {
	fmt.Fprintln(w, "Figure 3 — state module ablation (MLP vs CNN)")
	fmt.Fprintf(w, "  %-4s %22s %22s %20s %18s\n", "", "NodeUtil% (MLP/CNN)", "BBUtil% (MLP/CNN)", "Wait h (MLP/CNN)", "Slowdown (MLP/CNN)")
	for _, g := range byScenario(results) {
		if len(g) != 2 || g[0].failed() || g[1].failed() {
			fmt.Fprintf(w, "  %-4s (failed)\n", g[0].Cell.Scenario.Name)
			continue
		}
		mlp, cnn := g[0].Report, g[1].Report
		fmt.Fprintf(w, "  %-4s %10.1f /%8.1f %10.1f /%8.1f %9.2f /%7.2f %8.2f /%6.2f\n",
			g[0].Cell.Scenario.Name,
			mlp.Utilization[0]*100, cnn.Utilization[0]*100,
			mlp.Utilization[1]*100, cnn.Utilization[1]*100,
			mlp.AvgWaitHours(), cnn.AvgWaitHours(),
			mlp.AvgSlowdown, cnn.AvgSlowdown)
	}
}

// FprintFigure4 prints each ordering's loss series.
func FprintFigure4(w io.Writer, series []Fig4Series) {
	fmt.Fprintln(w, "Figure 4 — training loss by curriculum ordering (MSE per episode)")
	for _, s := range series {
		fmt.Fprintf(w, "  %-28s", s.Label)
		for _, l := range s.Loss {
			fmt.Fprintf(w, " %7.4f", l)
		}
		fmt.Fprintln(w)
	}
}

// fprintMethodRow starts a (scenario, method) row of the four-method
// figures and reports whether the cell has a report to finish it with; a
// failed cell's row is closed here.
func fprintMethodRow(w io.Writer, r CellResult) bool {
	fmt.Fprintf(w, "  %-4s %-12s", r.Cell.Scenario.Name, r.Cell.Method.DisplayName())
	if r.failed() {
		fmt.Fprintln(w, " (failed)")
	}
	return !r.failed()
}

// FprintFigure5 prints the system-level metric rows of the fig567 cells.
func FprintFigure5(w io.Writer, results []CellResult) {
	fmt.Fprintln(w, "Figure 5 — system-level metrics")
	fmt.Fprintf(w, "  %-4s %-12s %14s %14s\n", "", "method", "NodeUtil %", "BBUtil %")
	for _, r := range results {
		if fprintMethodRow(w, r) {
			fmt.Fprintf(w, " %14.1f %14.1f\n", r.Report.Utilization[0]*100, r.Report.Utilization[1]*100)
		}
	}
}

// FprintFigure6 prints the user-level metric rows of the fig567 cells.
func FprintFigure6(w io.Writer, results []CellResult) {
	fmt.Fprintln(w, "Figure 6 — user-level metrics")
	fmt.Fprintf(w, "  %-4s %-12s %14s %14s\n", "", "method", "AvgWait h", "AvgSlowdown")
	for _, r := range results {
		if fprintMethodRow(w, r) {
			fmt.Fprintf(w, " %14.2f %14.2f\n", r.Report.AvgWaitHours(), r.Report.AvgSlowdown)
		}
	}
}

// FprintFigure7 prints the fig567 cells' Kiviat matrices (per scenario, 1 =
// best per axis) and polygon areas.
func FprintFigure7(w io.Writer, results []CellResult) {
	fmt.Fprintln(w, "Figure 7 — Kiviat (normalized axes; larger area = better overall)")
	fmt.Fprintf(w, "  %-4s %-12s", "", "method")
	for _, a := range metrics.KiviatAxes(false) {
		fmt.Fprintf(w, " %24s", a)
	}
	fmt.Fprintf(w, " %8s\n", "area")
	for _, g := range byScenario(results) {
		mat := kiviatOf(g, false)
		for i, r := range g {
			if !fprintMethodRow(w, r) {
				continue
			}
			for _, v := range mat[i] {
				fmt.Fprintf(w, " %24.3f", v)
			}
			fmt.Fprintf(w, " %8.3f\n", metrics.KiviatArea(mat[i]))
		}
	}
}

// FprintFigure8 prints the r_BB time series.
func FprintFigure8(w io.Writer, samples []GoalSample) {
	fmt.Fprintln(w, "Figure 8 — r_BB fluctuation (12-hour window, S5)")
	for i, s := range samples {
		if i%8 == 0 && i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  (%6.2fh %.3f)", s.T/3600, s.RBB)
	}
	fmt.Fprintln(w)
}

// FprintFigure9 prints the r_BB box statistics per workload.
func FprintFigure9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9 — r_BB box plot per workload")
	fmt.Fprintf(w, "  %-4s %8s %8s %8s %8s %8s %8s %6s\n", "", "min", "q1", "median", "q3", "max", "mean", "n")
	for _, r := range rows {
		s := r.Stats
		fmt.Fprintf(w, "  %-4s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %6d\n",
			r.Workload, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean, s.N)
	}
}

// FprintFigure10 prints the fig10 cells: the three-resource comparison,
// with the power axis in the Kiviat area.
func FprintFigure10(w io.Writer, results []CellResult) {
	fmt.Fprintln(w, "Figure 10 — three schedulable resources (S6-S10)")
	fmt.Fprintf(w, "  %-4s %-12s %12s %12s %12s %12s %12s %8s\n",
		"", "method", "NodeUtil %", "BBUtil %", "Power kW", "Wait h", "Slowdown", "area")
	for _, g := range byScenario(results) {
		mat := kiviatOf(g, true)
		for i, r := range g {
			if !fprintMethodRow(w, r) {
				continue
			}
			rep := r.Report
			fmt.Fprintf(w, " %12.1f %12.1f %12.1f %12.2f %12.2f %8.3f\n",
				rep.Utilization[0]*100, rep.Utilization[1]*100, rep.AvgSysPowerKW,
				rep.AvgWaitHours(), rep.AvgSlowdown, metrics.KiviatArea(mat[i]))
		}
	}
}
