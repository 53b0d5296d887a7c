package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// retiredTrace is the private switch this command resolved -scenario with
// before scenario.ByName: workload.ScenarioByName, then a walk over
// workload.PowerScenarios.
func retiredTrace(t *testing.T, name string, div int, days, gap float64, seed int64) []byte {
	t.Helper()
	sys := workload.ThetaScaled(div)
	base := workload.GenerateBase(workload.GeneratorConfig{System: sys, Duration: days * 86400, MeanInterarrival: gap, Seed: seed})
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], seed+1)
	jobs, names := base, sys.Resources
	if sc, err := workload.ScenarioByName(name); err == nil {
		jobs = workload.Apply(base, pool, sc, sys, seed+2)
	} else if name != "base" {
		psys := workload.WithPower(sys)
		for _, psc := range workload.PowerScenarios() {
			if psc.Name == name {
				jobs, names = workload.ApplyPower(base, pool, psc, psys, seed+2), psys.Resources
			}
		}
	}
	var buf bytes.Buffer
	if err := job.WriteTrace(&buf, jobs, names); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func trace(t *testing.T, name string) []byte {
	t.Helper()
	var sp scenario.ScenarioSpec
	if name != "base" {
		var err error
		if sp, err = scenario.ByName(name); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, _, err := generate(&buf, sp, 32, 0.5, 110, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Resolving through scenario.ByName moved no byte of what the command
// already wrote: base and S1-S10 equal the retired switch's output.
func TestBuiltinTracesMatchRetiredSwitch(t *testing.T) {
	names := []string{"base"}
	for i := 1; i <= 10; i++ {
		names = append(names, fmt.Sprintf("S%d", i))
	}
	for _, name := range names {
		if got, want := trace(t, name), retiredTrace(t, name, 32, 0.5, 110, 1); !bytes.Equal(got, want) {
			t.Errorf("%s: trace differs from the retired switch's", name)
		}
	}
}

// What ByName brought: variants and the trace family resolve, and a variant
// axis reaches the jobs.
func TestVariantsAndTraceFamilyResolve(t *testing.T) {
	s4 := trace(t, "S4")
	if noisy := trace(t, "S4@wtn=0.5"); bytes.Equal(noisy, s4) || bytes.Count(noisy, []byte("\n")) != bytes.Count(s4, []byte("\n")) {
		t.Error("S4@wtn=0.5 must be S4's jobs with other walltimes")
	}
	if dense := trace(t, "S4@ia=0.5"); bytes.Count(dense, []byte("\n")) <= bytes.Count(s4, []byte("\n")) {
		t.Error("S4@ia=0.5 halves the gap: more jobs than S4 in the same span")
	}
	if t4 := trace(t, "T4"); !strings.HasPrefix(string(t4), "# id submit") || bytes.Count(t4, []byte("\n")) < 10 {
		t.Errorf("T4 wrote no trace: %.80q", t4)
	}
}
