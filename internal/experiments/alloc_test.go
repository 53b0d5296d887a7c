package experiments

import (
	"testing"

	"repro/internal/scenario"
)

// A cell's fixed path — materialise the workload, load it, replay it,
// collect the report — allocates per cell, not per job: the workload is two
// slabs and a pointer slice, its variant axes run on it in place, the
// simulator loads it without a copy or an ID map, and the event heap holds
// the running set. A per-job allocation anywhere on that path (one more
// Clone, a boxed event, a map cell per ID) is at least one per job here.
//
// What a cell allocates regardless of its length — set-up, the cluster's
// allocation slots (two per job that ever ran at once), the slices that grow
// by doubling, three rngs — is 110 to 140 allocations, more than half a job
// each on the builtin scales' own traces (59 and 155 jobs). So both scales
// replay the benchmark's seven-day trace, where that is a tenth of a job.
func TestFCFSEvalCellAllocationsPerJob(t *testing.T) {
	for _, sc := range []scenario.ScaleSpec{scenario.TinyScaleSpec(), scenario.QuickScaleSpec()} {
		sc.TraceDuration = 7 * 86400
		for _, name := range []string{"S4", "S4@wtn=0.5,zipf=0.9"} {
			sp, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := scenario.CampaignSpec{
				Name:      "alloc",
				Scale:     sc,
				Scenarios: []scenario.ScenarioSpec{sp},
				Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
			}
			run, err := OpenCampaign(spec, CampaignOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			cell := run.Cells()[0]
			if err := run.ResolveCell(cell); err != nil {
				t.Fatal(err)
			}
			jobs := 0
			perCell := testing.AllocsPerRun(5, func() {
				res, err := run.EvalCell(cell)
				if err != nil {
					t.Fatal(err)
				}
				jobs = res.Report.Jobs
			})
			t.Logf("%s %s: %.0f allocations per cell, %d jobs: %.3f per job", sc.Name, name, perCell, jobs, perCell/float64(jobs))
			if perJob := perCell / float64(jobs); perJob > 0.5 {
				t.Errorf("%s %s: %.3f allocations per job (%.0f for %d jobs), want <= 0.5", sc.Name, name, perJob, perCell, jobs)
			}
		}
	}
}
