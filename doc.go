// Package repro is a from-scratch Go reproduction of "MRSch: Multi-Resource
// Scheduling for HPC" (Li et al., IEEE CLUSTER 2022).
//
// The implementation lives under internal/: the neural-network substrate
// (nn), the Direct Future Prediction algorithm (dfp), the MRSch agent
// (core), the CQSim-equivalent event-driven simulator (sim), the scheduling
// framework with window-based reservation and EASY backfilling (sched), the
// comparison baselines (ga, rl), the workload generators (workload), the
// evaluation metrics (metrics), the declarative campaign specs (scenario)
// and the campaign runner that trains, evaluates and renders them
// (experiments): every figure of the paper's evaluation is a builtin
// campaign or a study on a campaign run, regenerated by cmd/mrsch-exp.
// Executables are under cmd/, a first-contact walkthrough under examples/, the
// repository benchmark under bench/, and substrate microbenchmarks in
// bench_test.go in this directory.
//
// # Performance engine
//
// The learning hot path is a zero-steady-state-allocation batched engine
// over one nn.Layer contract — Forward/Backward take a batch of bsz
// row-major samples, and a single sample is a batch of one:
//
//   - Inference: dfp has one inference forward (three input modules,
//     dueling streams, combine). dfp.Agent.Act runs it at bsz=1 and the
//     decision daemon's batched decider at bsz=B, through layer-owned and
//     agent-owned buffers — 0 heap allocations per decision, and each
//     decision bitwise independent of the batch it shared. BenchmarkDecisionLatency
//     measures the paper's §V-F full-scale network (11410 inputs,
//     4000/1000/512 widths) at ~39 ms per decision on one 2.7 GHz core
//     against the paper's reported < 2 s.
//
//   - Training: dfp.Agent.TrainSteps runs an episode's gradient steps as
//     one burst. Each step gathers its minibatch into row-major matrices
//     and drives the nn package's cache-blocked batch kernels once per
//     shard instead of once per sample, backpropagates the dueling action
//     stream sparsely (only the taken action's slice, with a
//     rank-collapsed mean correction), and spreads the shards, the
//     gradient reduction in fixed worker order, the clipping and the Adam
//     update over dfp.Config.Workers goroutines that are started once per
//     burst — bitwise deterministic for any fixed worker count. A
//     sample-at-a-time step over the same layers at bsz=1, with the dense
//     dueling backward, lives in dfp's engine_test.go as the oracle the
//     engine is equivalence-tested against to ≤1e-12.
//
// Benchmarks live in bench_test.go (BenchmarkTrainStep*, BenchmarkTrainSteps, BenchmarkAct*,
// BenchmarkDecisionLatency); BENCH_dfp.json records the current snapshot
// against the seed baseline, and ROADMAP.md's Performance section describes
// the methodology.
package repro
