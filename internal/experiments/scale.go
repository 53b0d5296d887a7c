// Package experiments runs declarative campaigns (internal/scenario specs)
// and, through them, regenerates every figure of the paper's evaluation
// (§V). CampaignRun is the one place a (scenario, method) pair becomes base
// materials, a trained family model and a scheduling policy; Train is the
// one training entry point behind it. The figures that are scenario x method
// grids (3, 5-7, 10) are builtin campaigns under renderers over
// []CellResult; the rest (1, 4, 8, 9, the ablations) are ordinary functions
// of a run, which lends them its materials and family models (Figures lists
// both kinds). Everything is a pure function of an explicit Scale, so the
// same code runs a CI-sized replica or a heavier standalone configuration.
//
// # How a cell evaluates each method
//
// One definition, in CampaignRun.cellPolicy; every seed derives from the
// scale seed and the cell's grid index, never from worker identity:
//
//   - Heuristic: FCFS with EASY backfilling; deterministic.
//   - Optimization: the GA picker, seeded Seed+7000+Index.
//   - MRSch: greedy (epsilon 0) through an unrecorded read-only actor clone
//     of the family's frozen model, so a report does not depend on Index.
//   - Scalar RL: samples its softmax policy, as in training, from a stream
//     seeded Seed+9000+Index, through the same kind of actor clone.
//
// # Who owns a cell's jobs
//
// Materials hold the base trace and its splits, shared and read-only.
// Materials.WorkloadSpec builds a scenario's jobs from the test split anew
// on every call — one slab copy by the Table III transform, the walltime
// and user axes in place on it — and keeps nothing, so the jobs are the
// caller's. EvalCell is such a caller with one use for them: it loads them
// into the cell's simulator as they are, the simulator writes their state,
// and they are garbage with it when the report is out; no workload or trace
// is cached between cells. Evaluate is for a caller that replays one slice
// under several policies (mrsch-sim, the quickstart, the ablations): it
// clones before it loads.
package experiments

import (
	"repro/internal/cluster"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Scale fixes the size of an experimental campaign. All randomness derives
// from Seed, so campaigns are reproducible. The sizing is the embedded
// scenario.ScaleSpec (the serializable form — its fields promote, so
// s.Div, s.Window, ... read as before); RolloutWorkers and Pipelined are
// runtime knobs raised by the cmd binaries, never part of a spec.
type Scale struct {
	scenario.ScaleSpec

	// RolloutWorkers is the number of simulator environments the training
	// harness (internal/rollout) rolls out concurrently; 0 means all CPU
	// cores (the package-wide rollout.ResolveWorkers convention). The
	// built-in scales pin it to 1 — the serial-equivalent path that is
	// deterministic across machines — and the cmd binaries raise it via
	// -parallel. See the internal/rollout package doc for the determinism
	// contract.
	RolloutWorkers int
	// Pipelined overlaps episode collection with gradient steps in every
	// training campaign of the scale (rollout.Config.Pipelined): round k+1
	// rolls out against a versioned weight snapshot while round k trains.
	// Off by default — barrier mode is the bitwise-reproducibility
	// reference — and raised by the cmd binaries via -pipeline. Pipelined
	// campaigns are deterministic for a fixed (Seed, RolloutWorkers) pair
	// but differ from barrier-mode campaigns; see rollout's package doc,
	// rules 6-8, and its opening for what the overlap measured (the same
	// training wall as barrier mode on 2 vCPUs, unmeasured beyond).
	Pipelined bool
	// CheckpointDir, when non-empty, makes every training campaign of the
	// scale durable: the full agent state (weights, optimizer moments,
	// replay ring, epsilon and rng cursors) is written atomically to a
	// per-run file under the directory at every round boundary
	// (rollout.Config.Checkpoint, rules 9-10 of the rollout package doc).
	// Raised by the cmd binaries via -checkpoint.
	CheckpointDir string
	// CheckpointEvery throttles checkpoint writes to every Nth round
	// boundary (0 or 1 = every round). The final boundary always writes,
	// so a completed run's checkpoint is its final state; a crash between
	// throttled writes just replays up to N rounds on resume. Raise it
	// when serializing the replay buffer every round would rival the
	// round's own training time.
	CheckpointEvery int
	// Resume makes training runs restart from their run's checkpoint file
	// under CheckpointDir (each run writes one file, named by its training
	// key) instead of episode zero. A resumed
	// run is bitwise identical to an uninterrupted one for the same
	// (Seed, RolloutWorkers, Pipelined) settings; a checkpoint written
	// under different settings is rejected loudly rather than silently
	// diverging. With no checkpoint file present the run starts fresh
	// (first launch of a preemptable job). Raised via -resume.
	Resume bool
	// OnCheckpoint, when non-nil, observes checkpoint traffic: action is
	// "save" after each round-boundary write and "resume" after a
	// successful restore, episodes the cumulative episode count. Used by
	// the cmd binaries for progress lines and by tests.
	OnCheckpoint func(action string, episodes int)
	// Metrics/Journal, when set, wire the training harness's telemetry
	// (rollout.Config.Metrics/Journal). Runtime knobs like the rest of
	// this block: observe-only (rollout doc rule 11) and never part of a
	// spec, so they cannot perturb model-store keys or checkpoints.
	Metrics *telemetry.Registry
	Journal *telemetry.Journal
}

// ScaleFromSpec materializes a runnable Scale from its serializable sizing;
// the runtime knobs start at their deterministic defaults (1 rollout
// worker, barrier training).
func ScaleFromSpec(sp scenario.ScaleSpec) Scale {
	return Scale{ScaleSpec: sp, RolloutWorkers: 1}
}

// Spec returns the serializable sizing of the scale.
func (s Scale) Spec() scenario.ScaleSpec { return s.ScaleSpec }

// Validate rejects sizing that would silently generate a degenerate trace
// or curriculum (nonpositive Div, Window, SetSize, TraceDuration, ...).
func (s Scale) Validate() error { return s.Spec().Validate() }

// rolloutConfig derives the training-harness configuration for the scale.
func (s Scale) rolloutConfig() rollout.Config {
	return rollout.Config{
		Workers:   s.RolloutWorkers,
		Seed:      s.Seed + 7,
		Pipelined: s.Pipelined,
		Metrics:   s.Metrics,
		Journal:   s.Journal,
	}
}

// QuickScale is the CI-sized campaign used by `go test` and the default
// benchmarks: a 1/32 Theta and a compressed training budget (the builtin
// scenario.QuickScaleSpec sizing).
func QuickScale() Scale { return ScaleFromSpec(scenario.QuickScaleSpec()) }

// StandardScale is a heavier campaign for standalone runs of cmd/mrsch-exp:
// a 1/16 Theta, a two-day trace, and a longer curriculum.
func StandardScale() Scale { return ScaleFromSpec(scenario.StandardScaleSpec()) }

// TinyScale is the smallest builtin campaign, used by CI campaign smokes
// and `-scale tiny`.
func TinyScale() Scale { return ScaleFromSpec(scenario.TinyScaleSpec()) }

// System returns the scaled two-resource machine.
func (s Scale) System() cluster.Config { return workload.ThetaScaled(s.Div) }

// PowerSystem returns the scaled three-resource machine of §V-E.
func (s Scale) PowerSystem() cluster.Config { return workload.WithPower(s.System()) }
