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
//     the daemon's answer equals core.MRSch.Pick (Train=false) on the same
//     model and the same decision instant — bit for bit, at every batch
//     size. Three mechanisms compose into this guarantee: gob preserves
//     float64 bits on the wire, the daemon reconstructs the decision
//     instant through the same cluster/encoder arithmetic the simulator
//     uses (protocol.go), and the batched forward pass is row-wise bitwise
//     identical to the single-sample path (dfp.BatchDecider; see
//     internal/dfp/decide.go for the kernel argument). The
//     serve-equivalence suite enforces this at batch sizes {1, 4, max},
//     under whichever nn kernel set the process selected — the row-identity
//     argument holds per set, and one process never mixes sets. Comparing
//     served decisions against picks computed in another process requires
//     the same kernel set on both sides (internal/nn "Kernel dispatch").
//
//  2. Admission batching is invisible. Concurrent requests coalesce into
//     one batched forward pass — the first request of a batch waits at most
//     MaxWait for at most MaxBatch-1 companions — but by rule 1 the batch a
//     request lands in never changes its answer, only its latency.
//
//  3. Swaps are atomic per batch. A weight swap (admin frame or SIGHUP)
//     takes the engine's write lock, loads, publishes, and increments the
//     model version; every batch is decided entirely under one version —
//     old or new across a concurrent swap, never a blend — and carries that
//     version in its responses. A swap that fails to load publishes
//     nothing: the previous version keeps serving, untouched.
//
//  4. Request-level failures keep the connection. A malformed request (bad
//     geometry, overcommitted cluster state, empty queue, a NaN or infinite
//     time) or a refused swap
//     is answered with an error reply on an intact connection. Only frame
//     damage — bad length, checksum, or encoding — kills the connection,
//     with no resynchronization attempt (the internal/distrib rule 5
//     discipline: damage is death).
//
//  5. Both sides reject a protocol mismatch, naming the peer. The daemon
//     refuses a hello from another protocol revision and the client refuses
//     such a welcome, each stating the peer's version and its own, so the
//     operator of a mixed deployment knows which binary to upgrade.
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
