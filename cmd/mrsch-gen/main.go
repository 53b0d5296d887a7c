// Command mrsch-gen generates workload traces: the synthetic Theta-like
// base trace (§IV-A) or any scenario internal/scenario resolves by name — a
// Table III scenario (S1-S5), a power-extended §V-E one (S6-S10), the
// trace family (T1-T5) or a variant of one ("S4@wtn=0.5") — written in the
// plain-text trace format of internal/job.
//
// Usage:
//
//	mrsch-gen -scenario base|<name>[@variants] [-div 16] [-days 2] [-gap 110]
//	          [-seed 1] [-out trace.txt]
//
// A variant's div axis overrides -div and its interarrival axis multiplies
// -gap, as they do a campaign's scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	name := flag.String("scenario", "base", "base, or a scenario name (S1..S10, T1..T5) with optional @variants")
	div := flag.Int("div", 16, "Theta scale divisor")
	days := flag.Float64("days", 2, "trace duration in days")
	gap := flag.Float64("gap", 110, "peak mean inter-arrival seconds")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var sp scenario.ScenarioSpec
	if *name != "base" {
		var err error
		if sp, err = scenario.ByName(*name); err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-gen: %v\n", err)
			os.Exit(2)
		}
	}
	w, closeOut := io.Writer(os.Stdout), func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-gen: %v\n", err)
			os.Exit(1)
		}
		w, closeOut = f, f.Close
	}
	n, sys, err := generate(w, sp, *div, *days, *gap, *seed)
	if err == nil {
		err = closeOut()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-gen: %v\n", err)
		os.Exit(1)
	}
	desc := fmt.Sprintf("%d nodes, %d TB bb", sys.Capacities[0], sys.Capacities[1])
	if sp.Power {
		desc += ", power-extended"
	}
	fmt.Fprintf(os.Stderr, "mrsch-gen: wrote %d jobs (%s, %s)\n", n, *name, desc)
}

// generate writes the scenario's trace to w — the base trace for the zero
// spec — and returns the job count and the system the trace is for.
func generate(w io.Writer, sp scenario.ScenarioSpec, div int, days, gap float64, seed int64) (int, cluster.Config, error) {
	if sp.Div > 0 {
		div = sp.Div
	}
	if sp.InterarrivalScale > 0 {
		gap *= sp.InterarrivalScale
	}
	sys := workload.ThetaScaled(div)
	var jobs []*job.Job
	if sp.Trace != "" {
		var err error
		if jobs, err = workload.LoadTraceBase(sp.Trace, sys, days*86400, gap); err != nil {
			return 0, sys, err
		}
	} else {
		gcfg := workload.GeneratorConfig{System: sys, Duration: days * 86400, MeanInterarrival: gap, Seed: seed}
		if sp.Burst != nil {
			b := sp.Burst.Config()
			gcfg.Burst = &b
		}
		jobs = workload.GenerateBase(gcfg)
	}
	pool := workload.AssignDarshanBB(jobs, sys.Capacities[1], seed+1)
	if sp.Name != "" {
		if sp.Power {
			sys = workload.WithPower(sys)
			jobs = workload.ApplyPower(jobs, pool, sp.PowerMix(), sys, seed+2)
		} else {
			jobs = workload.Apply(jobs, pool, sp.Mix(), sys, seed+2)
		}
		workload.NoiseWalltimesInPlace(jobs, sp.WalltimeNoiseSigma, seed+3)
		workload.AssignZipfUsersInPlace(jobs, sp.ZipfUsers, sp.ZipfTheta, seed+4)
	}
	return len(jobs), sys, job.WriteTrace(w, jobs, sys.Resources)
}
