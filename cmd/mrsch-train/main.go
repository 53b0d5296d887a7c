// Command mrsch-train curriculum-trains an MRSch agent for a Table III
// workload (§III-D: sampled -> real -> synthetic job sets) and saves the
// network weights for later use by mrsch-sim.
//
// Usage:
//
//	mrsch-train -workload S4 [-scale quick|standard|tiny] [-pipeline] [-out mrsch-s4.model]
//
// Training collects its episodes one at a time through the internal/rollout
// harness, and each gradient step sums its minibatch in two fixed shards on
// as many of two CPUs as there are, so the saved model is the same bits on
// every host of the same GOARCH and AVX+FMA support, at any core count (see
// the rollout package documentation for the determinism contract).
//
// -pipeline overlaps collection with training: episode k+1 rolls out against
// a published weight snapshot while episode k's gradient steps run. Runs
// stay bitwise reproducible but differ from barrier-mode runs (the
// collection policy lags one episode); with -validate, the validation
// protocol scores the live weights as usual while only snapshot readers are
// in flight. Measured on 2 vCPUs (ten alternated S4 quick-scale runs per
// setting) the process wall is the same with and without it: the two
// gradient shards already fill both vCPUs. Unmeasured beyond 2 vCPUs.
//
// -checkpoint DIR makes the run durable: the agent's full training state
// (weights, Adam moments, the replay ring, epsilon and rng cursors) is written
// atomically to DIR at every round boundary. -resume restarts an
// interrupted run from its checkpoint — bitwise identical to never having
// been interrupted for the same (-workload, -scale, -pipeline) flags, which
// the checkpoint records (including a hash of the full scale
// spec) and verifies. With no checkpoint file present, -resume starts
// fresh, so a preemptable job can always launch with both flags.
// -checkpoint-every N throttles writes to every Nth round boundary (the
// final boundary always writes) when serializing the replay buffer every
// round would rival the round's training time. -validate composes with
// -checkpoint: the §IV-A model-selection state (best validation score and
// the weight snapshot that scored it) is checkpointed alongside the agent
// state, so a resumed validated run keeps a best model found before the
// interruption; validated and plain checkpoints use distinct keys and
// never resume each other's files.
//
// -telemetry-addr ADDR exposes live training metrics (round and episode
// counters, gradient-step latency, replay occupancy) plus /health and pprof
// over HTTP, and -journal FILE appends per-round JSONL events; both are
// observe-only (rollout package doc, rule 11), so instrumented runs stay
// bitwise identical to bare ones.
//
// -scale picks the sizing (experiments.Scale); every other flag above but
// -workload, -out, -cnn and -validate sets one field of the
// experiments.CampaignOptions the run trains under — the runtime
// mrsch-exp's family models train under too, through the same
// experiments.Train.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/nn/kernel"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	wl := flag.String("workload", "S1", "Table III workload (S1-S5)")
	scaleFlag := flag.String("scale", "quick", "training scale: quick, standard, or tiny")
	out := flag.String("out", "", "weights output file (default mrsch-<workload>.model)")
	cnn := flag.Bool("cnn", false, "use the CNN state module (Figure 3 ablation)")
	validate := flag.Bool("validate", false, "keep the best weights by validation score (§IV-A protocol)")
	pipeline := flag.Bool("pipeline", false, "overlap collection with training against a published weight snapshot")
	checkpoint := flag.String("checkpoint", "", "directory for round-boundary training checkpoints (empty = no checkpointing)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "write a checkpoint every N round boundaries (the final boundary always writes)")
	resume := flag.Bool("resume", false, "resume from the checkpoint in -checkpoint if one exists (requires identical flags)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /health, and pprof over HTTP at this address (empty = off)")
	journalPath := flag.String("journal", "", "append run events as JSONL to this file (empty = off)")
	flag.Parse()

	// Attribute every run to its kernel set up front (the CPU selects it;
	// see internal/nn/kernel).
	logger := telemetry.NewLogger(os.Stderr, "mrsch-train")
	logger.Event("kernel", "set", kernel.Name(), "features", kernel.Features())

	// Flag combinations fail loudly.
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "mrsch-train: -resume requires -checkpoint DIR (there is nothing to resume from)")
		os.Exit(2)
	}
	if *checkpointEvery < 1 {
		fmt.Fprintf(os.Stderr, "mrsch-train: -checkpoint-every must be >= 1, got %d\n", *checkpointEvery)
		os.Exit(2)
	}
	scaleSpec, err := scenario.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(2)
	}
	sc := experiments.ScaleFromSpec(scaleSpec)

	// Reject unknown workloads before generating materials; curricula exist
	// for the two-resource Table III scenarios only.
	if sp, err := scenario.ByName(*wl); err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(2)
	} else if sp.Power || sp.IsVariant() {
		fmt.Fprintf(os.Stderr, "mrsch-train: -workload %s: train on a Table III base scenario (S1-S5); power and theta-variant cells reuse their family's model\n", *wl)
		os.Exit(2)
	}

	// Telemetry is observe-only (rollout doc rule 11): wiring it cannot
	// perturb the run, so both knobs are plain opt-ins.
	reg, journal, closeTelemetry, err := telemetry.Open(*telemetryAddr, *journalPath, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(1)
	}
	defer closeTelemetry()
	resumedAt := 0
	opt := experiments.CampaignOptions{
		Pipelined:       *pipeline,
		CheckpointDir:   *checkpoint,
		CheckpointEvery: *checkpointEvery,
		Resume:          *resume,
		OnCheckpoint: func(action string, episodes int) {
			if action == "resume" {
				resumedAt = episodes
				fmt.Printf("resumed from checkpoint: %d episode(s) already trained\n", episodes)
			}
		},
		Metrics: reg,
		Journal: journal,
	}

	mode := "barrier"
	if opt.Pipelined {
		mode = "pipelined"
	}
	m, err := experiments.Prepare(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("training MRSch on %s (scale %s: Theta/%d, %d sets x %d jobs per kind, %s)\n",
		*wl, sc.Name, sc.Div, sc.SetsPerKind, sc.SetSize, mode)
	trained, err := experiments.Train(m, experiments.TrainRun{Kind: scenario.KindMRSch, Family: *wl, CNN: *cnn, Validate: *validate}, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(1)
	}
	if *validate {
		best := trained.Best
		fmt.Printf("best validation score %.4f (mean utilization), wait %.2f h, slowdown %.2f\n",
			best.Score, best.AvgWaitSec/3600, best.AvgSlowdown)
	}
	agent, results := trained.MRSch, trained.Episodes
	for i, r := range results {
		fmt.Printf("  episode %2d [%s] loss=%.4f eps=%.3f\n", resumedAt+i+1, r.Set, r.Loss, r.Epsilon)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("mrsch-%s.model", *wl)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := agent.Save(f); err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-train: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("saved weights to %s (%d parameters)\n", path, agent.Agent.NumParams())
}
