package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/nn/kernel"
	"repro/internal/scenario"
)

// runRepeat is the benchmark's own acceptance test, the one its driver
// applies: two sets of n end-to-end runs of this binary, run i of both sets at
// seed+i. It goes workload by workload and alternates the sets run by run, so
// that both sets of a workload see the same spell of the host. It reports
// false if compare does for any workload.
func runRepeat(c config, n int, stdout io.Writer) (bool, error) {
	ok := true
	fmt.Fprintf(stdout, "%-15s %-13s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound")
	for _, name := range workloadNames {
		var sets [2]map[string][]float64 // metric -> one value per run
		for set := range sets {
			sets[set] = map[string][]float64{}
		}
		for i := 0; i < n; i++ {
			ci := c
			ci.seed = c.seed + int64(i)
			for set := range sets {
				res, err := child(ci, name, false)
				if err != nil {
					return false, err
				}
				if !res.Correct {
					return false, fmt.Errorf("%s at seed %d: %d of %d ops failed", name, ci.seed, res.Failed, res.Attempted)
				}
				for metric, v := range res.Metrics {
					sets[set][metric] = append(sets[set][metric], v.Value)
				}
			}
		}
		if !compare(name, sets, stdout) {
			ok = false
		}
	}
	return ok, nil
}

// compare prints, for every end-to-end metric of one workload, both sets'
// medians, each set's spread (interquartile distance over median) and how
// much worse the second median is than the first, against the metric's bound.
// It reports false if a second median is worse than the first by more than
// the bound, or if a spread exceeds it: a metric whose identical runs spread
// wider than its bound cannot resolve a regression of that size. setup_s is
// exempt from the spread gate, as it is in the driver's.
func compare(name string, sets [2]map[string][]float64, stdout io.Writer) bool {
	ok := true
	for _, d := range endToEnd {
		a, b := sets[0][d.Name], sets[1][d.Name]
		ma, mb := median(a), median(b)
		worse := (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
		sa, sb := spread(a), spread(b)
		verdict := ""
		if worse > d.Bound {
			verdict += "  MEDIAN GAP EXCEEDS BOUND"
		}
		if d.Name != "setup_s" && max(sa, sb) > d.Bound {
			verdict += "  SPREAD EXCEEDS BOUND"
		}
		if verdict != "" {
			ok = false
		}
		fmt.Fprintf(stdout, "%-15s %-13s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
			name, d.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
	}
	return ok
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method), which is what the acceptance
// procedure computes.
func spread(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n < 2 {
		return 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / median(sorted)
}

// writeGolden recomputes the seed-1 campaign digests in this process and
// merges them into the golden file: the fcfs digests are replaced, the mrsch
// digests of the active kernel set are replaced, other sets' stay.
func writeGolden(c config, path string) error {
	c.seed, c.smoke = 1, false
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("bench/golden.json: %w", err)
	}
	if g.MRSch == nil {
		g.MRSch = map[string]map[string]string{}
	}
	for _, kind := range []scenario.MethodKind{scenario.KindHeuristic, scenario.KindMRSch} {
		c.workload = "campaign-" + string(kind)
		w := &campaign{cfg: c, kind: kind}
		if err := w.setup(); err != nil {
			return err
		}
		digests := map[string]string{}
		for i, cell := range w.cells {
			res, err := w.run.EvalCell(cell)
			if err != nil {
				return err
			}
			digests[w.cells[i].Label()] = digest(res.Report)
		}
		if kind == scenario.KindHeuristic {
			g.FCFS = digests
		} else {
			g.MRSch[kernel.Name()] = digests
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
