// Package rollout is the episode-collection harness: it rolls job sets out
// as episodes through sim.Simulator environments and feeds the collected
// transitions to the batched trainers (internal/dfp for MRSch, internal/rl
// for the scalar baseline), one episode a round, in episode order. Campaign
// cells fan out across goroutines through MapCollect.
//
// A round is one episode, whatever the host: what a wider round bought was
// measured on the one host every session has, a 2-vCPU guest (ROADMAP,
// Performance, "knob audit"), and it bought no wall time — a whole
// quick-scale training read 429, 426 and 431 ms at 1, 2 and 4 episodes a
// round, because training is 92 % gradient steps and a step's two shards
// already keep both vCPUs busy — while it made the trained weights a
// function of the round width. Pipelining (Config.Pipelined) is the one
// overlap kept: it is an algorithm, with its own one-round policy lag, not a
// speed setting.
//
// # The determinism and seeding contract
//
// This is the canonical statement of the repo-wide reproducibility rules;
// the sim, sched, core, dfp, rl, and workload package docs cross-reference
// it rather than restating it.
//
//  1. Episode identity drives randomness. Episode i explores through a
//     private rng seeded EpisodeSeed(Config.Seed, i) and acts at the
//     exploration rate of schedule slot i (dfp.Config.EpsilonAt).
//
//  2. Reduction happens in episode order. A round is one episode, rolled
//     out against the weights at its start and then folded into the
//     learner on a single goroutine. Replay-buffer contents, gradient
//     arithmetic, and optimizer steps are therefore a pure function of the
//     seed, the learner and the job sets.
//
//  3. A fixed seed ⇒ bitwise-identical runs: the same core.EpisodeResult
//     stream and the same final network weights, run after run, machine
//     after machine, at any core count (a dfp gradient step always sums its
//     minibatch in the same two shards). The nn kernel set does not enter
//     into it: the sets compute the same bits. Cross-machine identity does
//     require the same GOARCH and, on amd64, the same AVX+FMA support,
//     because the standard library's math.Exp rounds by CPU (internal/nn
//     "Kernel dispatch"); arm64 against amd64 is unverified.
//
//  4. Barrier mode is the inline serial reference loop, exactly. The loop
//     lives in rollout_test.go, as dfp's sample-at-a-time reference step
//     lives in its engine_test.go: each is an oracle the equivalence tests
//     compare against, not an API.
//
//  5. The simulator itself is deterministic and free of wall-clock or map
//     iteration effects (see internal/sim), so an episode's transcript is a
//     pure function of its job set, the policy weights, and the episode rng.
//
//  6. Pipelined mode (Config.Pipelined) overlaps episode k+1's collection
//     with episode k's reduction. Actors then read the published copy-on-write
//     weight snapshot (nn.Param snapshots, via SnapshotLearner) instead of
//     the live weights; the snapshot advances only at round boundaries, with
//     no rollout in flight. Collection of episode r therefore acts on the
//     weights as of the end of episode r-2's reduction — a one-round policy
//     lag.
//
//  7. Pipelined runs keep rules 1-3 (episode-keyed rngs, episode-order
//     reduction on one goroutine, any core count), so a fixed seed is
//     bitwise reproducible run to run in pipelined mode too. Pipelined and
//     barrier runs differ from each other — the lagged snapshot is a
//     different (equally valid) interleaving — and Pipelined=false remains
//     the barrier reference, unchanged.
//
//  8. AfterEpisode always runs on the reduction goroutine with the live
//     weights stable. In barrier mode no rollouts are in flight at all; in
//     pipelined mode the next episode's rollout is in flight but touches only
//     the published snapshot, so read-only evaluation of the learner (the
//     §IV-A validation protocol) remains race-free.
//
//  9. Checkpoints happen at round boundaries only — after every episode —
//     with the learner quiescent: every transcript of episodes [0, k)
//     reduced, no rollout in flight, and (pipelined) the in-flight
//     collection joined but the round's weights not yet published.
//     Config.Checkpoint runs exactly there; a checkpoint therefore captures
//     a pure function of (seed, pipelined) — the same state every run with
//     those settings passes through. Resuming from it (Config.Resume =
//     episodes done, learner state restored from the agent's state section)
//     continues that same trajectory: kill-at-episode-k + resume is bitwise
//     identical to the uninterrupted run — the same EpisodeResult stream
//     (the resumed run returns the tail) and the same final weights. Resume
//     must match the checkpoint's (Seed, Pipelined) and job sets; Train
//     rejects offsets outside the run, and mode changes across a resume are
//     undefined (callers persist and verify the settings alongside the
//     state — see experiments' manifest).
//
//  10. A pipelined checkpoint captures TWO weight buffers: the live
//     weights (end of episode k's reduction) and the published snapshot (end
//     of episode k-1's), because the interrupted run had already collected
//     episode k+1 against the latter. Resume restores both, re-collects
//     episode k+1 against the restored snapshot, then publishes the live
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
