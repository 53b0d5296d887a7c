// Package telemetry is the runtime observability subsystem: lock-cheap
// instruments (atomic counters, gauges, and fixed-bucket latency
// histograms), a named registry with point-in-time snapshots, an
// append-only JSONL run journal, an opt-in HTTP exposition endpoint
// (/metrics, /health, net/http/pprof), and the key=value structured logger
// the cmd binaries share for startup lines. It depends on the standard
// library only, so every layer of the stack — the decision daemon
// (internal/serve), the distributed campaign runner (internal/distrib),
// and the training harness (internal/rollout) — can carry instruments
// without acquiring dependencies.
//
// # The observe-only determinism contract
//
// Instrumentation observes computations; it never participates in them.
// Concretely:
//
//  1. Recording is side-effect-free toward the instrumented code: Counter,
//     Gauge, and Histogram mutate only their own atomics, draw no random
//     numbers, read no clocks, and allocate nothing on the record path
//     (0 allocs/op, pinned by testing.AllocsPerRun guards). An instrumented
//     run therefore produces bitwise-identical decisions, weights, replay
//     contents, and reports to an uninstrumented one.
//
//  2. Wall-clock reads happen only at observation boundaries — around a
//     batched forward pass, around a gradient step, at a rollout round
//     boundary — never inside a decision or training computation, and the
//     measured durations feed instruments and journals only, never control
//     flow. The rollout resume-equivalence, distrib fault-matrix, and serve
//     byte-identity suites all run with instruments active to enforce this.
//
//  3. Journals and logs are serialization sinks: they may allocate and
//     block on I/O, so they sit on event paths (a swap, a requeue, an
//     episode boundary), not on per-decision hot paths.
//
// Consequently the determinism contracts of internal/rollout (rules 1-10),
// internal/distrib (rules 1-9), and internal/serve (rules 1-6) hold
// verbatim with telemetry enabled; those package docs state the same in
// one sentence each and defer here for the reasoning.
//
// # Instruments
//
// Counter is a monotonic atomic uint64. Gauge is an atomic float64 (bit-
// cast), with Set and Add. Histogram is a fixed-bucket log-linear (HDR-
// style) histogram over non-negative int64 values — nanosecond latencies,
// batch sizes — with 64 sub-buckets per power of two: values below 64 are
// recorded exactly, larger values with a relative error bounded by 1/64
// (1.6%). Quantile extraction is exact over the bucketed representation:
// Quantile(q) returns the representative value of precisely the bucket
// holding the nearest-rank order statistic, the same rank convention the
// retired sort-based loadgen percentile code used. Count, Sum, and Max are
// tracked exactly.
//
// All instruments are safe for concurrent use and are obtained get-or-
// create from a Registry by name; a nil *Registry hands out live but
// unexported instruments, so wiring code never branches on "telemetry
// enabled?".
//
// # Run journal
//
// Journal writes one JSON object per line: {"seq":N,"ts":"...",
// "event":"name", ...key/value pairs}. seq is monotonic from 1 within a
// journal, so gaps or reordering in shipped logs are detectable. A nil
// *Journal drops events, mirroring the nil-Registry convention.
//
// # Exposition
//
// Handler serves GET /metrics (plain "name value" text, or JSON with
// ?format=json), GET /health, and the net/http/pprof suite under
// /debug/pprof/. ListenAndServe mounts it on a TCP address. Open is the cmd
// binaries' -telemetry-addr and -journal flags in one call: the registry
// served at the address and the journal, each nil when its flag is empty.
package telemetry
