// Package serve is the scheduler-as-a-service decision daemon: it loads a
// trained MRSch model and answers "here is the queue and the cluster state,
// what do I schedule next?" over the same length-prefixed, CRC-checked
// frame protocol (internal/wire) the distributed campaign runner speaks.
// Around the model it wraps the three production mechanics a decision
// service needs — admission batching, zero-downtime weight swaps, and
// graceful drain — without ever compromising the one property that makes a
// served decision trustworthy: it is the decision the offline simulator
// would have made.
//
// # The serving contract
//
// This is the canonical statement of the daemon's rules; the engine,
// server, client, and protocol sources cross-reference it by number.
//
//  1. Served decisions are byte-identical to offline ones. For any request,
//     the daemon's answer equals core.MRSch.Pick on the same model and the
//     same decision instant — bit for bit, at every batch
//     size. Three mechanisms compose into this guarantee: the wire layout
//     carries a float64 as its 64 IEEE-754 bits (protocol.go; NaN payloads,
//     -0 and ±Inf arrive as sent), the daemon reconstructs the decision
//     instant through the same cluster/encoder arithmetic the simulator
//     uses (protocol.go), and the batched forward pass is row-wise bitwise
//     identical to the single-sample path (dfp.BatchDecider; see
//     internal/dfp/decide.go for the kernel argument). The
//     serve-equivalence suite enforces this at batch sizes {1, 4, max},
//     under whichever nn kernel set the process selected; the sets compute
//     the same bits. Comparing served decisions against picks computed in
//     another process needs the same GOARCH and, on amd64, the same AVX+FMA
//     support on both sides, not the same kernel set (internal/nn "Kernel
//     dispatch").
//
//  2. Admission batching is invisible. Concurrent requests coalesce into
//     one batched forward pass — the first request of a batch waits at most
//     MaxWait for at most MaxBatch-1 companions — but by rule 1 the batch a
//     request lands in never changes its answer, only its latency. What
//     MaxWait costs a lone client is set by the runtime's timers, not by
//     its value: Go's Linux poller sleeps in whole milliseconds, so while
//     the process is otherwise idle any wait below 1 ms lasts about 1.1 ms
//     (300 time.NewTimer(d) waits on the benchmark guest, p50: 50µs →
//     1091µs, 200µs → 1094µs, 900µs → 1097µs, 1.5ms → 2205µs). Only a
//     MaxWait of zero — dispatch whatever is queued, the zero Config's
//     behaviour — costs nothing; cmd/mrsch-serve's flag defaults to 200µs.
//
//  3. Swaps are atomic per batch. The engine decides every batch through
//     one decider of one read-only model (core.Model), under one lock, and
//     carries the version that decided it in its responses. A weight swap
//     (admin frame or SIGHUP) keeps five rules. (a) Loading and packing
//     happen outside the lock: the swap reads and checks the whole model
//     file and builds the new model and its decider while batches keep
//     being decided by the current version; before that it holds the lock
//     only for a pointer load, to learn which decider's build to load
//     into. (b) The install step is a pointer store plus version++, so
//     every batch is decided entirely under one version — old or new
//     across a concurrent swap, never a blend. (c) Versions are numbered
//     in install order: the version a swap returns is the one its install
//     made, whichever swap finished loading first. (d) A failed load
//     touches nothing and leaves the version as it was: no model's weights
//     are ever written, and a file refused anywhere in it builds no model,
//     so the previous version keeps serving, untouched. (e) The swap path
//     starts no goroutine: it runs on the goroutine that asked for the swap.
//
//  4. Request-level failures keep the connection. A malformed request (bad
//     geometry, overcommitted cluster state, empty queue, a NaN or infinite
//     time, Demand slices of the wrong or of differing lengths — the layout
//     carries each job's own count) or a refused swap
//     is answered with an error reply on an intact connection. Only frame
//     damage — bad length or checksum, or a payload that departs from the
//     layout: a truncated field, a varint written long, a count the
//     payload cannot hold, bytes after the last field, an unknown type —
//     kills the connection, with no resynchronization attempt (the
//     internal/distrib rule 5 discipline: damage is death).
//
//  5. Both sides reject a protocol mismatch, naming the peer. The daemon
//     refuses a hello from another protocol revision and the client refuses
//     such a welcome, each stating the peer's version and its own, so the
//     operator of a mixed deployment knows which binary to upgrade. That
//     holds between peers that share this revision's layout (revision 2
//     and later: the first payload byte is the layout). Revision 1 framed a
//     gob stream, which no later daemon can read far enough to find a
//     version in: it drops the connection and logs one line saying the
//     hello is not in its layout and a peer of another revision is the
//     likely cause; a revision-1 daemon does the same to a later client.
//
//  6. Shutdown drains. After Shutdown begins, new connections and new
//     requests are refused, but every already-admitted request is answered
//     before its connection closes.
//
//  7. Telemetry is contract-neutral. Wiring Config.Metrics/Config.Journal
//     (internal/telemetry) adds atomic instrument updates and
//     observation-boundary clock reads around the batched forward pass —
//     never inside it, and never feeding batching or pick computation — so
//     rules 1-6 hold bit for bit with telemetry enabled. The
//     serve-equivalence suite runs with instruments active to enforce
//     this.
package serve
