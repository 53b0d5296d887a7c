// Command mrsch-sim replays one workload through one scheduling method and
// prints the §IV-B metrics. It is the single-run counterpart of mrsch-exp:
// a one-scenario, one-method campaign (internal/experiments), so the method
// is built, trained, seeded and evaluated exactly as that cell of a larger
// campaign would be. Built-in scenarios — Table III S1-S10, the
// ingested-trace transfer family T1-T5, and variant syntax (e.g.
// "S4@wtn=0.5", "S4@zipf=0.9", "S4@burst=5x0.25"; see internal/scenario) —
// prepare their own base materials like any campaign cell, so e.g.
// `-method mrsch -model s4.model -workload T4` measures cross-machine
// transfer of an S4-trained model.
//
// With -trace FILE the jobs come from a trace file (cmd/mrsch-gen) instead
// and replay on a Theta/-div machine; the policy is still the campaign
// cell's, with -workload naming the scenario family a trained method learns
// on (a power scenario for a three-resource trace).
//
// Usage:
//
//	mrsch-sim -method mrsch|optimization|rl|fcfs -workload S1..S10|T1..T5
//	          [-scale quick|standard|tiny] [-model mrsch-s1.model]
//	mrsch-sim -method fcfs -trace trace.txt -div 16
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/scenario"
)

func main() {
	method := flag.String("method", "fcfs", "mrsch, optimization, rl, or fcfs")
	wl := flag.String("workload", "S1", "built-in workload S1-S10")
	traceFile := flag.String("trace", "", "replay a trace file instead of a built-in workload")
	div := flag.Int("div", 16, "Theta divisor for -trace replays")
	scaleFlag := flag.String("scale", "quick", "quick, standard, or tiny")
	model := flag.String("model", "", "pre-trained MRSch weights (otherwise trains in-process)")
	flag.Parse()

	scale, err := scenario.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-sim: %v\n", err)
		os.Exit(2)
	}
	if *method == "rl" {
		*method = string(scenario.KindScalarRL)
	}
	spec, err := scenario.MethodByName(*method)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-sim: unknown method %q\n", *method)
		os.Exit(2)
	}
	if spec.Kind == scenario.KindMRSch && *model != "" {
		spec.Model = *model
	} else {
		spec.Train = spec.Kind.Trained()
	}
	sp, err := scenario.ByName(*wl)
	if err != nil {
		fail(err)
	}
	if *traceFile != "" {
		scale.Div = *div // the machine the trace replays on, and the one a trained method learns
	}
	campaign := scenario.CampaignSpec{
		Name:      "sim",
		Scale:     scale,
		Scenarios: []scenario.ScenarioSpec{sp},
		Methods:   []scenario.MethodSpec{spec},
	}
	opt := experiments.CampaignOptions{Workers: 1}

	if *traceFile == "" {
		results, err := experiments.RunCampaign(campaign, opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(results[0].Report.String())
		return
	}

	jobs := readTrace(*traceFile)
	power := len(jobs[0].Demand) == 3
	if spec.Kind.Trained() && power != sp.Power {
		fail(fmt.Errorf("trace %s has %d resources but -workload %s, the family %s learns on, has %d", *traceFile, len(jobs[0].Demand), sp.Name, spec.Kind, sp.Arity()))
	}
	run, err := experiments.OpenCampaign(campaign, opt)
	if err != nil {
		fail(err)
	}
	policy, err := run.Policy(run.Cells()[0])
	if err != nil {
		fail(err)
	}
	sc := experiments.ScaleFromSpec(scale)
	sys := sc.System()
	if power {
		sys = sc.PowerSystem()
	}
	report, err := experiments.Evaluate(sys, policy, jobs, spec.DisplayName(), *wl, sys.ResourceIndex("power_kw"))
	if err != nil {
		fail(err)
	}
	fmt.Println(report.String())
}

// readTrace loads a non-empty trace file.
func readTrace(path string) []*job.Job {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	jobs, err := job.ReadTrace(f)
	if err != nil {
		fail(err)
	}
	if len(jobs) == 0 {
		fail(fmt.Errorf("trace %s is empty", path))
	}
	return jobs
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mrsch-sim: %v\n", err)
	os.Exit(1)
}
