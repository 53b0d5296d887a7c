// Package repro is a from-scratch Go reproduction of "MRSch: Multi-Resource
// Scheduling for HPC" (Li et al., IEEE CLUSTER 2022).
//
// The implementation lives under internal/: the neural-network substrate
// (nn), the Direct Future Prediction algorithm (dfp), the MRSch agent
// (core), the CQSim-equivalent event-driven simulator (sim), the scheduling
// framework with window-based reservation and EASY backfilling (sched), the
// comparison baselines (ga, rl), the workload generators (workload), the
// evaluation metrics (metrics), and the figure-regeneration harness
// (experiments). Executables are under cmd/, runnable walkthroughs under
// examples/, and the benchmark harness that regenerates every figure of the
// paper's evaluation is bench_test.go in this directory.
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
//   - Training: dfp.Agent.TrainStep gathers each minibatch into row-major
//     matrices and drives the nn package's cache-blocked batch kernels once
//     per shard instead of once per sample, backpropagates the dueling
//     action stream sparsely (only the taken action's slice, with a
//     rank-collapsed mean correction), and shards the batch across
//     dfp.Config.Workers goroutines with per-worker gradients reduced in
//     fixed order — bitwise deterministic for any fixed worker count. A
//     sample-at-a-time step over the same layers at bsz=1, with the dense
//     dueling backward, is retained as TrainStepReference and
//     equivalence-tested against the engine to ≤1e-12.
//
// Benchmarks live in bench_test.go (BenchmarkTrainStep*, BenchmarkAct*,
// BenchmarkDecisionLatency); BENCH_dfp.json records the current snapshot
// against the seed baseline, and ROADMAP.md's Performance section describes
// the methodology.
package repro
