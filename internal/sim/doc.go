// Package sim is the reproduction of CQSim: a trace-based, event-driven HPC
// job-scheduling simulator (§IV of the paper). It imports jobs from a trace,
// advances a simulation clock on job-arrival and job-completion events, and
// on every queue/system change hands control to a scheduling Policy, exactly
// as CQSim sends scheduling requests to the MRSch agent.
//
// # Determinism
//
// The simulator is fully deterministic: it owns no randomness, reads no wall
// clock, and iterates no maps on any path that affects results. Events are
// processed in one total order, (time, finish before submit, insertion
// order), assembled from two sources: arrivals wait in a list kept in
// (submit time, load order), finishes in a heap ordered by (time, start
// order), and Step drains an instant's finishes before it admits that
// instant's arrivals. The waiting queue preserves arrival order. An
// episode's outcome is therefore a pure function of the loaded jobs and the
// policy's decisions — the property the parallel episode-collection harness
// builds on; see the internal/rollout package documentation for the
// repo-wide determinism and seeding contract.
//
// # What a round costs
//
// A trace's arrivals are known when it is loaded, so they never enter a
// heap: Load appends them to the arrival list — already in order when the
// trace is, as every generator and reader produces it; a stable sort of the
// part not yet admitted when a load arrives out of order, which only a
// mid-run Load does — and Step advances a cursor over it. The heap holds
// finishes alone, one value per running job (tens of entries under a
// thousand-job trace), ordered by (time, seq) with seq unique, so the order
// is total (event.go). Load refuses an ID twice by comparing with the last
// ID while IDs ascend, and builds a map of them only from the first ID that
// does not; it keeps the jobs it is handed, without copying them.
//
// The cluster keeps its running set ordered by (EstEnd, JobID) as it
// allocates and releases (see internal/cluster), so the look-ahead of a
// reservation, the state encoder and the goal vector read it without
// sorting. It keeps no index by job: a finish releases its job by the key
// StartAt allocated it with, Start + Walltime (the same float addition, so
// a running job's Start and Walltime must not change), through the binary
// search that placed it, and Load's refusal of a repeated ID is what keeps
// the keys of one trace apart. StartAt removes the started job at the queue
// index the policy already holds, moving the shorter side of the queue (the
// head: nothing). The window policy (internal/sched) reuses one PickContext,
// usage vector and set of scan limits from round to round, and its last
// reservation walk while the cluster's Version and the reserved job have
// not changed.
//
// Its EASY backfill does not walk the jobs. Beside the queue the simulator
// keeps two columns, index for index: the demand vector packed into lanes of
// one word (lanes.go) and the walltime. Both are appended at submit and
// removed with the queue entry, so a job's Demand and Walltime must not
// change while it waits. NextBackfill runs the whole EASY test — fits free,
// and ends by the shadow time or fits extra — over the columns, with the
// free and extra limits packed once per call: per limit, a subtraction of
// the demand key from the guarded limit key and a mask (lanes.go), and
// now+wall <= shadow for the walltime. This package owns that test and its
// layout; the kernel set lends only a four-words-a-step form of the same
// expression (internal/nn/kernel's BackfillScan4, in the avx2 set), which
// runs over the whole four-job steps from the scan's start, and this
// package's one-job loop takes the rest, or all of it where the set has no
// such form (MRSCH_KERNEL=go). Integer logic and one IEEE add and ordered
// compare a job give the same index either way, so no set moves a schedule.
// A lost guard proves a demand exceeds a limit, so the scan never refuses a
// job the test passes; NextBackfill confirms the job it stops at with the
// full comparison and resumes after a refusal, so it is exact on every
// system. Only a clamped lane (more than eight resources, or a capacity
// above a lane's largest value; no builtin system) can cause a refusal, and
// a job confirmed is the job the caller starts next, which it reads anyway.
// The scan ends once no unit of resource 0 is free: job.Validate, which Load
// applies, requires Demand[0] >= 1. A run allocates for set-up and for
// slices that grow, not per job, per event or per round
// (TestFCFSAllocationsPerJob, TestLoadOfAscendingIDsAllocatesOnce).
//
// # Finite times
//
// Both orders need comparable keys. Load refuses a job whose submit time,
// runtime or walltime is NaN or infinite (job.Validate), and
// cluster.Allocate refuses a non-finite start or estimated end, so neither
// order ever holds a key that compares false against everything.
//
// # Accounting at cutoffs
//
// ResourceSeconds and Utilization integrate usage over the processed prefix
// of the event stream, [first event, current clock]. Mid-run — or when
// SetMaxEvents truncates an episode with jobs still running — a running job
// contributes only the usage accrued up to the last processed event; its
// remaining runtime is not forecast into the metrics. The §IV-B evaluation
// metrics (internal/metrics) assume a normally-completed run.
package sim
