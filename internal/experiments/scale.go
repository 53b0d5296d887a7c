// Package experiments runs declarative campaigns (internal/scenario specs)
// and, through them, regenerates every figure of the paper's evaluation
// (§V). CampaignRun is the one place a (scenario, method) pair becomes base
// materials, a trained family model and a scheduling policy; Train is the
// one training entry point behind it. The figures that are scenario x method
// grids (3, 5-7, 10) are builtin campaigns under renderers over
// []CellResult; the rest (1, 4, 8, 9, the ablations) are ordinary functions
// of a run, which lends them its materials and family models (Figures lists
// both kinds). Everything is a pure function of an explicit Scale — the
// sizing — and CampaignOptions — the runtime (worker count, training mode,
// model store, checkpoints, telemetry) — so the same code runs a CI-sized
// replica or a heavier standalone configuration. Materials derive from the
// Scale alone and carry nothing a run sets.
//
// # How a cell evaluates each method
//
// One definition, in CampaignRun.cellPolicy; every seed derives from the
// scale seed and the cell's grid index, never from worker identity:
//
//   - Heuristic: FCFS with EASY backfilling; deterministic.
//   - Optimization: the exact Pareto-knee picker (sched.Pareto); deterministic.
//   - MRSch: greedy (epsilon 0) through the evaluator of the family's model
//     (core.Model.Evaluator, an unrecorded read-only actor clone), so a
//     report does not depend on Index.
//   - Scalar RL: samples its softmax policy, as in training, from a stream
//     seeded Seed+9000+Index, through its evaluator (rl.Scheduler.Evaluator).
//
// # Which cells share a model
//
// A run holds one read-only model per modelKey and every cell reads it
// through an evaluator of its own, so cells sharing a model may evaluate
// concurrently.
// A model trained in-process (train=true) is a function of its family's
// curriculum on the cell's base materials, so it is shared across the
// scenarios of a family but trained again for each replicate seed's
// materials; the model store keys it the same way. A model loaded from a
// file (MethodSpec.Model) is the file's weights in a model built for the
// cell's system and window, so it is loaded once for every seed and every
// scenario of the campaign that builds the model alike: the paper's one
// trained model evaluated across many traces. A power scenario whose
// power_budget_kw sizes the encoding differently gets a model of its own.
//
// # What a run keeps
//
// A CampaignRun keeps only what its cells evaluate:
//
//   - Evaluation-only materials, one per materials key: the scale, the
//     request pool, the interarrival factor and the test split, copied into
//     one slab of its own, with Base, Train and Valid nil. The base trace
//     and the other four fifths of it are garbage once the run has cut them.
//   - Models, not agents (core.Model, dfp.Model): an MRSch model file or
//     store entry loads as a model (core.LoadModel), which builds no
//     trainable agent, and an agent trained in-process is kept as its model
//     (core.MRSch.Model) once the store holds it, so nothing keeps a gradient
//     buffer, optimizer moments or a replay ring.
//   - One packed first layer per model: a model packs its state module's
//     first Dense once, and every cell's evaluator reads that copy through
//     scratch of its own instead of packing one per cell.
//
// A training needs the splits the run dropped, so it re-prepares: the train
// branch of resolveModel, Figure4 and AblationStateNets take full materials
// from PrepareFor, which is deterministic, and drop them when they return.
// Train, ValidationWorkload and CurriculumSets fail loudly on the run's own
// materials rather than train on a split that is not there.
//
// # Who owns a cell's jobs
//
// A run's materials hold the test split, shared and read-only.
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
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Scale fixes the size of an experimental campaign: the embedded
// scenario.ScaleSpec, whose fields and Validate promote (s.Div, s.Window,
// ...). All randomness derives from Seed, so campaigns are reproducible.
// How a run executes at that size — rollout workers, training mode,
// checkpoints, telemetry — is CampaignOptions, never part of a Scale.
type Scale struct {
	scenario.ScaleSpec
}

// ScaleFromSpec materializes a runnable Scale from its serializable sizing.
func ScaleFromSpec(sp scenario.ScaleSpec) Scale { return Scale{ScaleSpec: sp} }

// QuickScale is the CI-sized campaign used by `go test` and the default
// benchmarks: a 1/32 Theta and a compressed training budget (the builtin
// scenario.QuickScaleSpec sizing).
func QuickScale() Scale { return ScaleFromSpec(scenario.QuickScaleSpec()) }

// TinyScale is the smallest builtin campaign, used by CI campaign smokes
// and `-scale tiny`.
func TinyScale() Scale { return ScaleFromSpec(scenario.TinyScaleSpec()) }

// System returns the scaled two-resource machine.
func (s Scale) System() cluster.Config { return workload.ThetaScaled(s.Div) }

// PowerSystem returns the scaled three-resource machine of §V-E.
func (s Scale) PowerSystem() cluster.Config { return workload.WithPower(s.System()) }
