// Package distrib is the fault-tolerant distributed campaign runner: a
// coordinator expands a scenario.CampaignSpec into its deterministic cell
// grid and shards the cells over a pool of workers — subprocesses over
// stdio, remote processes over TCP, or in-process goroutines in tests — all
// speaking one length-prefixed, CRC-checked frame protocol. The point is
// robustness: workers may crash, stall, babble corruption, or deliver
// results twice, and the campaign still finishes with output byte-identical
// to a single-process run.
//
// # The delivery and exactly-once contract
//
// This is the canonical statement of the distributed runner's rules; the
// frame, worker, and coordinator sources cross-reference it by number.
//
//  1. The cell is the unit of distribution. CampaignSpec.Expand is a pure
//     function of the spec, every per-cell seed derives from Cell.Index,
//     and evaluation reads only read-only models and materials (the
//     internal/rollout determinism contract), so one cell evaluated on any
//     worker — or in-process — produces identical bytes. Everything else
//     in this contract leans on that. The nn kernel set moves no bit, so
//     workers need not agree on it; a fleet spanning hosts needs the same
//     GOARCH on every host and, on amd64, the same AVX+FMA support, because
//     the standard library's math.Exp rounds by CPU (internal/nn "Kernel
//     dispatch"). Mixing arm64 and amd64 workers is unverified.
//
//  2. Collation is exactly-once by first-valid-result-wins. The first
//     result frame for a cell is collated; every later copy — a duplicated
//     frame, or a retry racing a slow worker whose result then arrives —
//     is dropped as a duplicate. A late result from a presumed-dead worker
//     is still accepted if its cell is uncollated: by rule 1 it is the
//     same bytes any retry would produce.
//
//  3. A cell evaluation error reported by a worker is terminal. By rule 1
//     the failure is deterministic — retrying elsewhere fails identically
//     — so the coordinator records it and never requeues the cell.
//
//  4. Liveness is proven, not assumed. Workers heartbeat between results;
//     a worker silent past the heartbeat timeout, or holding one cell past
//     the per-cell deadline, is severed and its in-flight cell requeued.
//
//  5. Damage is death. A frame with a bad length, checksum, or encoding —
//     or a result carrying the wrong campaign fingerprint — marks the
//     whole peer corrupt: the connection is abandoned without
//     resynchronization and in-flight work is requeued. The CRC makes a
//     flipped byte indistinguishable from a hostile stream, and the
//     cheapest correct response to either is a new worker.
//
//  6. Retries back off exponentially with jitter. A requeued cell waits
//     base<<(attempt-1), capped, halved, and jittered before reassignment;
//     after MaxAttempts distributed attempts it is relegated to the
//     in-process fallback rather than retried forever.
//
//  7. Training happens exactly once, before distribution. The coordinator
//     resolves every trained family model into the content-addressed model
//     store (experiments.CampaignOptions.ModelDir) while expanding the
//     campaign; workers run with NoTrain set and can only load stored
//     weights. A cell retried on three different workers loads the same
//     model file three times — it can never retrain it, so re-running a
//     finished campaign against the same store trains zero models.
//
//  8. The pool is an optimization, never a dependency. If workers fail to
//     start, die faster than cells finish, or the pool empties entirely,
//     the coordinator finishes every uncollated cell in-process on its
//     already-resolved run. A distributed campaign degrades to
//     experiments.RunCampaign; it does not abort.
//
//  9. The output is byte-identical to single-process execution. Results
//     collate in expansion order regardless of completion order, gob
//     framing round-trips float64 bits exactly, and rules 1-8 guarantee
//     each collated report equals the one RunCampaign would compute — so
//     the rendered campaign table is byte-for-byte the same, faults or no
//     faults.
//
//  10. Telemetry is contract-neutral. Wiring Options.Metrics/Options.Journal
//     (internal/telemetry) mirrors the Event stream into counters and JSONL
//     after each scheduling decision is made — atomic adds and buffered
//     writes that never feed assignment, requeue, timeout, or collation
//     logic — so rules 1-9, and rule 9's byte-identity in particular, hold
//     with telemetry enabled. The fault-injection suite runs with
//     instruments active to enforce this. A late result accepted from a
//     severed worker (rule 2) additionally announces itself as
//     EventLateResult, so resurrections are visible instead of silently
//     collated.
package distrib
