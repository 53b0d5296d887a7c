// Command mrsch-exp runs declarative scenario campaigns (internal/scenario)
// and regenerates the paper's evaluation figures (§V) as text tables. -fig
// and -campaign are one path. A figure that is a scenario x method grid is
// a builtin campaign under a figure-shaped renderer — Figure 3 is fig3,
// Figures 5-7 are fig567, Figure 10 is fig10, "sweep" is paper — and its
// rows are exactly the cells -campaign prints for that name. The others
// (Figures 1, 4, 8, 9 and the five ablations) are studies on the same run's
// materials and family models. One run serves a whole invocation, so a
// family model is trained once however many figures read it.
//
// Usage:
//
//	mrsch-exp [-scale quick|standard|tiny] [-fig all|1|3|4|5|6|7|8|9|10|sweep|ablations] [-parallel N] [-pipeline]
//	mrsch-exp -fig 3,5 [-checkpoint dir [-resume]] [-workers 2] [-report file] [-dry-run]
//	mrsch-exp -campaign spec.json [-parallel N] [-pipeline] [-checkpoint dir [-resume]] [-report file]
//	mrsch-exp -campaign paper|theta-variants|theta-skew|fig3|fig567|fig10 [-scale quick]
//	mrsch-exp -campaign spec.json -dry-run
//	mrsch-exp -campaign spec.json -workers 4 [-fault-plan faults.json]
//	mrsch-exp -campaign spec.json -workers 4 -listen :7077
//	mrsch-exp -worker [-connect host:7077]
//	mrsch-exp -prune -checkpoint dir [-dry-run]
//	mrsch-exp -dump-campaign paper|theta-variants|theta-skew|fig3|fig567|fig10 [-scale quick]
//	mrsch-exp -list
//
// -campaign runs a campaign spec: a JSON file (see -dump-campaign for the
// format), or a builtin campaign name. Cells fan out across -parallel
// goroutines; per-cell seeding derives from the cell's grid index, so
// results are identical for every count.
//
// -dump-campaign writes a builtin campaign as JSON to stdout at the
// selected -scale — the starting point for custom specs, and the golden
// files CI pins (specs/paper-campaign.json, specs/fig567-campaign.json).
//
// -list prints the builtin scenarios (Table III S1-S10 and the
// ingested-trace transfer family T1-T5), methods, variant axes (div,
// interarrival, walltime-noise, zipf user skew, and Markov-modulated
// bursty arrivals), campaigns, and figures with the campaign each renders,
// generated from the spec and figure registries.
//
// -parallel N evaluates up to N campaign cells at once (default 0 = all CPU
// cores). It chooses speed only: tables, trained models and model-store
// names are the same bits at every N, because a training collects one
// episode at a time and sums each gradient step in two fixed shards (see
// internal/rollout).
//
// -pipeline overlaps every training campaign's episode collection with its
// gradient steps against a published weight snapshot (rollout.Config
// .Pipelined). Campaigns stay reproducible but differ from barrier-mode
// campaigns (one-round policy lag); figure tables trained either way keep
// their qualitative shape. Measured on 2 vCPUs a training takes the same
// wall either way; unmeasured beyond 2 vCPUs.
//
// -checkpoint DIR makes runs durable twice over: trained family models are
// stored content-addressed in DIR (keyed by scenario family plus a hash of
// the spec and training settings), so re-running a finished campaign or
// figure retrains zero models; and in-process family training writes
// round-granular checkpoints there, so -resume continues a preempted
// training run bitwise identically instead of restarting it. The studies'
// own training runs (Figure 4, the state-nets ablation) are not
// checkpointed.
//
// -workers N runs each campaign through the fault-tolerant distributed
// coordinator (internal/distrib) over N worker processes instead of
// in-process goroutines. By default the workers are re-invocations of this
// binary with -worker, speaking the frame protocol over stdio; with
// -listen ADDR the coordinator instead waits for N workers to dial in over
// TCP (start them with -worker -connect HOST:PORT; they must share the
// coordinator's filesystem so the model store resolves). Family models are
// trained exactly once by the coordinator before distribution; the collated
// table is byte-identical to the in-process run. Studies always run in the
// coordinator process.
//
// -fault-plan FILE (with -workers) injects deterministic worker sabotage
// from a JSON map of worker id to fault plan (see distrib.FaultPlan) —
// the robustness smoke CI runs.
//
// -dry-run validates and prints the expanded grid of every campaign the
// invocation would run without evaluating it; with -prune it lists
// prunable entries without deleting.
//
// -report FILE additionally writes what was rendered — the campaign table,
// or the requested figures separated by blank lines — to FILE, without the
// surrounding banner and timing lines, so two runs can be compared
// byte-for-byte.
//
// -telemetry-addr ADDR exposes live campaign metrics (training and, with
// -workers, coordinator counters) plus /health and pprof over HTTP, and
// -journal FILE appends run events as JSONL. Both are observe-only
// (rollout rule 11, distrib rule 10): campaign tables are byte-identical
// with or without them.
//
// -prune garbage-collects the -checkpoint model store: entries whose
// content-addressed name no builtin campaign (at any builtin scale, either
// training mode, the trained-method axis included) can produce are
// deleted. Stores holding models from custom spec files or -seed overrides
// should -dry-run first: those keys are outside the builtin envelope.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/nn/kernel"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick, standard, or tiny")
	figFlag := flag.String("fig", "all", "comma-separated figures to run: 1,3,4,5,6,7,8,9,10,sweep,ablations or all")
	seed := flag.Int64("seed", 0, "override campaign seed (0 keeps the scale default)")
	parallel := flag.Int("parallel", 0, "campaign cells evaluated at once (0 = all CPU cores); moves no result bit")
	pipeline := flag.Bool("pipeline", false, "overlap collection with training against a published weight snapshot")
	campaignFlag := flag.String("campaign", "", "run a campaign instead of figures: a spec JSON file or a builtin name (see -list)")
	checkpoint := flag.String("checkpoint", "", "directory for the family-model store and training checkpoints")
	resume := flag.Bool("resume", false, "resume preempted family training from -checkpoint")
	dumpFlag := flag.String("dump-campaign", "", "write a builtin campaign spec (see -list) as JSON to stdout and exit")
	listFlag := flag.Bool("list", false, "list builtin scenarios, methods, theta-variant axes, campaigns, and figures, then exit")
	workerFlag := flag.Bool("worker", false, "run as a distributed campaign worker (protocol on stdio, or TCP with -connect)")
	connectFlag := flag.String("connect", "", "worker mode: dial the coordinator at host:port instead of using stdio")
	distWorkers := flag.Int("workers", 0, "distribute each campaign's cells over N worker processes (0 = in-process)")
	listenFlag := flag.String("listen", "", "accept -workers N TCP workers at this address instead of spawning them")
	faultFlag := flag.String("fault-plan", "", "with -workers: JSON file mapping worker id to an injected fault plan")
	dryRun := flag.Bool("dry-run", false, "validate and print the campaign grids without running; with -prune: list without deleting")
	reportFlag := flag.String("report", "", "also write the rendered campaign table or figures to this file (byte-comparable across runs)")
	pruneFlag := flag.Bool("prune", false, "garbage-collect the -checkpoint model store against the builtin-campaign keep-set")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /health, and pprof over HTTP at this address (empty = off)")
	journalPath := flag.String("journal", "", "append run events as JSONL to this file (empty = off)")
	flag.Parse()

	// Kernel-set attribution goes to stderr only: worker mode speaks the
	// distrib frame protocol on stdout, which must stay clean.
	logger := telemetry.NewLogger(os.Stderr, "mrsch-exp")
	logger.Event("kernel", "set", kernel.Name(), "features", kernel.Features())

	if *workerFlag {
		runWorker(*connectFlag)
		return
	}
	if *listFlag {
		printRegistry()
		return
	}

	// Telemetry is observe-only end to end (rollout rule 11, distrib rule
	// 10): campaign and figure results are identical with or without it.
	reg, journal, closeTelemetry, err := telemetry.Open(*telemetryAddr, *journalPath, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
		os.Exit(1)
	}
	defer closeTelemetry()
	opt := experiments.CampaignOptions{Metrics: reg, Journal: journal}

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "mrsch-exp: -parallel must be >= 0 (0 = all CPU cores), got %d\n", *parallel)
		os.Exit(2)
	}

	scaleSpec, err := scenario.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
		os.Exit(2)
	}
	if *seed != 0 {
		scaleSpec.Seed = *seed
	}

	if *dumpFlag != "" {
		spec, err := scenario.CampaignByName(*dumpFlag, scaleSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
			os.Exit(2)
		}
		if err := spec.Dump(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "mrsch-exp: -resume requires -checkpoint DIR (there is nothing to resume from)")
		os.Exit(2)
	}
	if *pruneFlag {
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "mrsch-exp: -prune requires -checkpoint DIR (the model store to collect)")
			os.Exit(2)
		}
		runPrune(*checkpoint, *dryRun)
		return
	}
	if *distWorkers < 0 {
		fmt.Fprintf(os.Stderr, "mrsch-exp: -workers must be >= 0, got %d\n", *distWorkers)
		os.Exit(2)
	}
	if (*listenFlag != "" || *faultFlag != "") && *distWorkers == 0 {
		fmt.Fprintln(os.Stderr, "mrsch-exp: -listen and -fault-plan apply to distributed campaigns; set -workers N")
		os.Exit(2)
	}
	opt.Workers = *parallel
	opt.Pipelined = *pipeline
	opt.ModelDir = *checkpoint
	opt.CheckpointDir = *checkpoint
	opt.Resume = *resume
	dist := distConfig{
		workers:   *distWorkers,
		listen:    *listenFlag,
		faultPlan: *faultFlag,
		dryRun:    *dryRun,
		report:    *reportFlag,
	}
	if *campaignFlag != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		spec, err := loadCampaign(*campaignFlag, scaleSpec, set["scale"], set["seed"], *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
			os.Exit(1)
		}
		banner := fmt.Sprintf("MRSch campaign %s — scale=%s (Theta/%d, seed %d), %d scenarios x %d methods",
			spec.Name, spec.Scale.Name, spec.Scale.Div, spec.Scale.Seed, len(spec.Scenarios), len(spec.Methods))
		runCampaign(banner, spec, []experiments.Figure{{
			Spec:   spec,
			Render: func(w io.Writer, results []experiments.CellResult) { experiments.FprintCells(w, spec.Name, results) },
		}}, opt, dist)
		return
	}

	// Figure mode: the requested figures share one run, opened on the
	// four-method grid whose MRSch families the studies read.
	figures, err := selectFigures(*figFlag, scaleSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
		os.Exit(2)
	}
	base, err := scenario.CampaignByName("fig567", scaleSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
		os.Exit(1)
	}
	mode := "barrier"
	if *pipeline {
		mode = "pipelined"
	}
	banner := fmt.Sprintf("MRSch experiment campaign — scale=%s (Theta/%d, window %d, seed %d, %s training)",
		scaleSpec.Name, scaleSpec.Div, scaleSpec.Window, scaleSpec.Seed, mode)
	runCampaign(banner, base, figures, opt, dist)
}

// runWorker is the -worker entry point: serve the distributed campaign
// protocol on stdio (the ProcPool arrangement) or over TCP with -connect.
// Stdout is the protocol channel, so all logging goes to stderr.
func runWorker(connect string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mrsch-exp: "+format+"\n", args...)
	}
	var conn io.ReadWriteCloser
	if connect != "" {
		c, err := net.Dial("tcp", connect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-exp: worker: %v\n", err)
			os.Exit(1)
		}
		conn = c
	} else {
		conn = stdioConn{}
	}
	if err := distrib.ServeWorker(conn, distrib.WorkerOptions{Logf: logf}); err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-exp: worker: %v\n", err)
		os.Exit(1)
	}
}

// stdioConn adapts the process's stdin/stdout to the connection interface
// ServeWorker wants.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (stdioConn) Close() error {
	os.Stdin.Close()
	return os.Stdout.Close()
}

// runPrune garbage-collects the model store (-prune).
func runPrune(dir string, dryRun bool) {
	kept, pruned, err := experiments.PruneModelStore(dir, dryRun)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
		os.Exit(1)
	}
	verb := "pruned"
	if dryRun {
		verb = "would prune"
	}
	for _, name := range pruned {
		fmt.Printf("%s %s\n", verb, name)
	}
	fmt.Printf("model store %s: %d entr(ies) kept, %d %s\n", dir, len(kept), len(pruned), verb)
}

// distConfig carries the distributed-campaign flags into runCampaign.
type distConfig struct {
	workers   int    // worker processes (0 = run in-process)
	listen    string // accept TCP workers here instead of spawning
	faultPlan string // JSON fault-injection file
	dryRun    bool   // validate and print the grid, don't run
	report    string // also write the rendered figures to this file
}

// selectFigures resolves a -fig list ("all" or comma-separated names)
// against the figure registry, in the registry's printing order.
func selectFigures(figs string, scale scenario.ScaleSpec) ([]experiments.Figure, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	delete(want, "all")
	var out []experiments.Figure
	for _, fig := range experiments.Figures(scale) {
		if all || want[fig.Name] {
			out = append(out, fig)
		}
		delete(want, fig.Name)
	}
	for name := range want {
		return nil, fmt.Errorf("-fig: unknown figure %q (see -list)", name)
	}
	return out, nil
}

// loadCampaign resolves a builtin name or spec file. A spec file carries
// its own scale, so an explicit -scale is rejected rather than silently
// ignored; an explicit -seed overrides the file's seed.
func loadCampaign(ref string, scaleSpec scenario.ScaleSpec, scaleSet, seedSet bool, seed int64) (scenario.CampaignSpec, error) {
	if spec, err := scenario.CampaignByName(ref, scaleSpec); err == nil {
		return spec, nil
	}
	f, err := os.Open(ref)
	if err != nil {
		return scenario.CampaignSpec{}, fmt.Errorf("-campaign %q is neither a builtin campaign nor a readable spec file: %w", ref, err)
	}
	spec, err := scenario.Load(f)
	f.Close()
	if err != nil {
		return spec, err
	}
	if scaleSet {
		return spec, fmt.Errorf("-scale applies to builtin campaigns only; spec file %s carries its own scale (%s)", ref, spec.Scale.Name)
	}
	if seedSet {
		spec.Scale.Seed = seed
	}
	return spec, nil
}

// runCampaign renders the figures in order on one campaign run opened on
// base, so a family model one figure trained serves the next; -campaign is
// the one-figure case, a grid under the plain cell table. Grids are
// evaluated in-process or, with -workers, by the distributed coordinator
// (which resolves models through the -checkpoint store, as does the run);
// figures that render the same campaign share its results. Every figure
// prints followed by a blank line; with -report the figures, joined by
// blank lines, are also written to a file for byte-for-byte comparison
// across runs.
func runCampaign(banner string, base scenario.CampaignSpec, figures []experiments.Figure, opt experiments.CampaignOptions, dist distConfig) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "mrsch-exp: %v\n", err)
		os.Exit(1)
	}
	if dist.dryRun {
		listed := map[string]bool{}
		for _, fig := range figures { // a study has no grid to list
			if fig.Study == nil && !listed[fig.Spec.Name] {
				listed[fig.Spec.Name] = true
				if err := dryRunCampaign(os.Stdout, fig.Spec); err != nil {
					fail(err)
				}
			}
		}
		return
	}
	fmt.Printf("%s\n\n", banner)
	start := time.Now()
	if opt.ModelDir != "" {
		opt.OnModel = func(family, action, path string) {
			switch action {
			case "cached":
				fmt.Printf("family %s: reusing stored model %s\n", family, path)
			case "trained":
				fmt.Printf("family %s: trained and stored %s\n", family, path)
			}
		}
	}
	run, err := experiments.OpenCampaign(base, opt)
	if err != nil {
		fail(err)
	}
	results := map[string][]experiments.CellResult{}
	var report bytes.Buffer
	var failed error
	for i, fig := range figures {
		var buf bytes.Buffer
		var err error
		if fig.Study != nil {
			if err = fig.Study(&buf, run); err != nil {
				err = fmt.Errorf("figure %s: %w", fig.Name, err)
			}
		} else {
			cells, done := results[fig.Spec.Name]
			if !done {
				if dist.workers > 0 {
					cells, err = runDistributed(fig.Spec, opt, dist)
				} else {
					cells, err = run.Run(fig.Spec)
				}
				results[fig.Spec.Name] = cells
			}
			// Cell failures don't abort the rest of the grid: render
			// whatever completed before reporting the failures.
			if len(cells) > 0 {
				fig.Render(&buf, cells)
			}
		}
		fmt.Printf("%s\n", buf.Bytes())
		if i > 0 {
			report.WriteByte('\n')
		}
		report.Write(buf.Bytes())
		if failed = err; failed != nil {
			break
		}
	}
	if dist.report != "" {
		if err := os.WriteFile(dist.report, report.Bytes(), 0o644); err != nil {
			fail(fmt.Errorf("-report: %w", err))
		}
	}
	if failed != nil {
		fail(failed)
	}
	fmt.Printf("campaign finished in %v\n", time.Since(start).Round(time.Millisecond))
}

// runDistributed runs the campaign through the internal/distrib coordinator
// over worker processes (spawned, or dialing in over TCP with -listen).
func runDistributed(spec scenario.CampaignSpec, opt experiments.CampaignOptions, dist distConfig) ([]experiments.CellResult, error) {
	var faults distrib.Faults
	if dist.faultPlan != "" {
		f, err := os.Open(dist.faultPlan)
		if err != nil {
			return nil, fmt.Errorf("-fault-plan: %w", err)
		}
		faults, err = distrib.LoadFaults(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	var pool distrib.Pool
	if dist.listen != "" {
		lp, err := distrib.NewListenPool(dist.listen, dist.workers)
		if err != nil {
			return nil, err
		}
		defer lp.Close()
		fmt.Fprintf(os.Stderr, "mrsch-exp: waiting for %d worker(s) on %s (start them with -worker -connect)\n",
			dist.workers, lp.Addr())
		pool = lp
	} else {
		pool = &distrib.ProcPool{Args: []string{"-worker"}, N: dist.workers}
	}
	dopt := distrib.Options{
		Seed:    spec.Scale.Seed,
		Faults:  faults,
		Metrics: opt.Metrics,
		Journal: opt.Journal,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mrsch-exp: "+format+"\n", args...)
		},
	}
	return distrib.Run(spec, opt, dopt, pool)
}

// dryRunCampaign validates the spec and prints its expanded grid without
// evaluating anything.
func dryRunCampaign(w io.Writer, spec scenario.CampaignSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return err
	}
	cells := spec.Expand()
	fmt.Fprintf(w, "campaign %s: %d cells, fingerprint %s\n", spec.Name, len(cells), fp)
	for _, c := range cells {
		fmt.Fprintf(w, "  %4d  %s\n", c.Index, c.Label())
	}
	return nil
}

// printRegistry renders the builtin spec registry (-list).
func printRegistry() {
	fmt.Println("Builtin scenarios:")
	for _, sp := range scenario.Builtins() {
		fmt.Printf("  %-4s (%d resources)  %s\n", sp.Name, sp.Arity(), sp.Describe())
	}
	fmt.Println("\nIngested-trace scenarios (cross-machine transfer; see workload.BuiltinTraces):")
	for _, sp := range scenario.TraceBuiltins() {
		fmt.Printf("  %-4s (%d resources)  %s\n", sp.Name, sp.Arity(), sp.Describe())
	}
	fmt.Println("\nMethods:")
	for _, k := range scenario.Kinds() {
		m := scenario.MethodSpec{Kind: k}
		fmt.Printf("  %-13s (kind %-12s)  %s\n", m.DisplayName(), k, m.Describe())
	}
	fmt.Println("\nVariant axes (scenario suffix: S4@<short>=<value>, comma-separated, each at most once):")
	for _, ax := range scenario.Axes() {
		fmt.Printf("  %-15s (short %-4s, ladder %v)  %s\n", ax.Name, ax.Short, ax.Values, ax.Description)
	}
	fmt.Printf("  %-15s (value <factor>x<frac>, e.g. S4@burst=5x0.25)  Markov-modulated bursty arrivals: gaps shrink to 1/factor for a stationary frac of submissions (dwell %d arrivals)\n",
		scenario.AxisBurst, scenario.DefaultBurstDwell)
	fmt.Println("\nBuiltin campaigns (-campaign / -dump-campaign):")
	for _, c := range scenario.BuiltinCampaigns(scenario.QuickScaleSpec()) {
		fmt.Printf("  %-15s %d scenarios x %d methods  %s\n", c.Name, len(c.Scenarios), len(c.Methods), c.Description)
	}
	fmt.Println("\nFigures (-fig), each a rendering of a campaign's cells or a study on the run:")
	for _, f := range experiments.Figures(scenario.QuickScaleSpec()) {
		if f.Study == nil {
			fmt.Printf("  %-10s campaign %s\n", f.Name, f.Spec.Name)
		} else {
			fmt.Printf("  %-10s study\n", f.Name)
		}
	}
}
