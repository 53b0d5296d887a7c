// Package rollout is the parallel episode-collection harness: it runs N
// independent sim.Simulator environments across worker goroutines and feeds
// the collected transitions to the batched trainers (internal/dfp for MRSch,
// internal/rl for the scalar baseline). Training campaigns and scenario
// sweeps (MapCollect) share one worker-pool engine.
//
// What the concurrency buys was measured on the one host every session has,
// a 2-vCPU guest (ROADMAP, Performance, "knob audit"; 2026-10-03): pure
// collection runs 1.1–1.5× faster at Workers 2 or 4 than at 1
// (BenchmarkEpisodeThroughput); a whole quick-scale training reads the same
// wall at every (Workers, Pipelined) setting, because the two gradient
// workers it trains with already keep both vCPUs busy; pipelining is ahead
// (1.10–1.18×, BenchmarkPipelinedThroughput) only where the gradient step
// leaves a vCPU idle. No setting is slower than its absence, each one's
// determinism contract below is tested, and all of it is unmeasured beyond
// 2 vCPUs.
//
// # The determinism and seeding contract
//
// This is the canonical statement of the repo-wide reproducibility rules;
// the sim, sched, core, dfp, rl, and workload package docs cross-reference
// it rather than restating it.
//
//  1. Episode identity, not worker identity, drives randomness. Episode i
//     explores through a private rng seeded EpisodeSeed(Config.Seed, i) and
//     acts at the exploration rate of schedule slot i
//     (dfp.Config.EpsilonAt). Which worker goroutine happens to run the
//     episode is irrelevant to its transcript.
//
//  2. Reduction happens in episode order. Rollouts proceed in rounds of
//     Config.Workers episodes collected concurrently against the weight
//     snapshot at round start; at the round barrier the transcripts are
//     folded into the learner in ascending episode index on a single
//     goroutine. Replay-buffer contents, gradient arithmetic, and optimizer
//     steps are therefore a pure function of (seed, worker count).
//
//  3. Fixed (seed, workers) ⇒ bitwise-identical runs: the same
//     core.EpisodeResult stream and the same final network weights, run
//     after run, machine after machine (modulo dfp.Config.Workers, which
//     shards gradient summation and has the same pin-it-explicitly rule).
//     The nn kernel set does not enter into it: the sets compute the same
//     bits. Cross-machine identity does require the same GOARCH and, on
//     amd64, the same AVX+FMA support, because the standard library's
//     math.Exp rounds by CPU (internal/nn "Kernel dispatch"); arm64 against
//     amd64 is unverified.
//
//  4. Workers=1 reproduces the inline serial reference loop exactly. The
//     loop lives in rollout_test.go, as dfp's sample-at-a-time reference
//     step lives in its engine_test.go: each is an oracle the equivalence
//     tests compare against, not an API. Different worker counts produce different (equally
//     valid) interleavings of collection and training, because a round of k
//     episodes shares the weights from its start; they are each individually
//     reproducible but not equal to one another.
//
//  5. The simulator itself is deterministic and free of wall-clock or map
//     iteration effects (see internal/sim), so an episode's transcript is a
//     pure function of its job set, the policy weights, and the episode rng.
//
//  6. Pipelined mode (Config.Pipelined) overlaps round k+1's collection
//     with round k's reduction. Actors then read the published copy-on-write
//     weight snapshot (nn.Param versioning, via SnapshotLearner) instead of
//     the live weights; the snapshot advances only at round boundaries, with
//     no rollout in flight. Collection of round r therefore acts on the
//     weights as of the end of round r-2's reduction — a one-round policy
//     lag.
//
//  7. Pipelined runs keep rules 1-2 (episode-keyed rngs, episode-order
//     reduction on one goroutine), so a fixed (Seed, Workers) pair is
//     bitwise reproducible run to run in pipelined mode too. Pipelined and
//     barrier runs differ from each other — the lagged snapshot is a
//     different (equally valid) interleaving, exactly as two worker counts
//     are — and Pipelined=false remains the barrier reference, unchanged.
//
//  8. AfterEpisode always runs on the reduction goroutine with the live
//     weights stable. In barrier mode no rollouts are in flight at all; in
//     pipelined mode the next round's rollouts are in flight but touch only
//     the published snapshot, so read-only evaluation of the learner (the
//     §IV-A validation protocol) remains race-free.
//
//  9. Checkpoints happen at round boundaries only, with the learner
//     quiescent: every transcript of rounds [0, k) reduced, no rollout in
//     flight, and (pipelined) the in-flight collection joined but the
//     round's weights not yet published. Config.Checkpoint runs exactly
//     there; a checkpoint therefore captures a pure function of
//     (seed, workers, pipelined) — the same state every run with those
//     settings passes through. Resuming from it (Config.Resume = episodes
//     done, learner state restored from the agent's state section) continues
//     that same trajectory: kill-at-round-k + resume is bitwise identical
//     to the uninterrupted run — the same EpisodeResult stream (the resumed
//     run returns the tail) and the same final weights. Resume must match
//     the checkpoint's (Seed, Workers, Pipelined) and job sets; Train
//     rejects offsets that do not land on a round boundary, and mode or
//     worker-count changes across a resume are undefined (callers persist
//     and verify them alongside the state — see experiments' manifest).
//
//  10. A pipelined checkpoint captures TWO weight buffers: the live
//     weights (end of round k's reduction) and the published snapshot (end
//     of round k-1's), because the interrupted run had already collected
//     round k+1 against the latter. Resume restores both, re-collects
//     round k+1 against the restored snapshot, then publishes the live
//     weights — re-entering the steady-state pipeline exactly where the
//     interrupted run left it. This is why the checkpoint hook runs before
//     the boundary's Publish, and why resumed pipelined runs skip the
//     initial publish.
//
//  11. Telemetry is contract-neutral. Wiring Config.Metrics/Config.Journal
//     (internal/telemetry) adds atomic instrument updates after each
//     reduction and clock reads at round boundaries and around gradient
//     steps — observation boundaries only, never inside rollout or
//     reduction computation, and never feeding scheduling, seeding, or
//     weight math — so rules 1-10, including checkpoint-resume bitwise
//     equivalence, hold with telemetry enabled. The resume-equivalence
//     suite runs with instruments active to enforce this.
package rollout
