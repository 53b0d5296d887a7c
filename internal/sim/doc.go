// Package sim is the reproduction of CQSim: a trace-based, event-driven HPC
// job-scheduling simulator (§IV of the paper). It imports jobs from a trace,
// advances a simulation clock on job-arrival and job-completion events, and
// on every queue/system change hands control to a scheduling Policy, exactly
// as CQSim sends scheduling requests to the MRSch agent. The policy every
// method runs is this package's round, WindowPolicy (below).
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
// startAt allocated it with, Start + Walltime (the same float addition, so
// a running job's Start and Walltime must not change), through the binary
// search that placed it, and Load's refusal of a repeated ID is what keeps
// the keys of one trace apart. startAt removes the started job at the queue
// index the round already holds, moving the shorter side of the queue (the
// head: nothing). The round reuses one PickContext and usage vector from
// round to round; the EASY pass reuses its scan limits, and its last
// reservation walk while it holds (below).
//
// The EASY backfill does not walk the jobs. Beside the queue the simulator
// keeps two columns, index for index: the demand vector packed into lanes of
// one word (lanes.go) and the walltime. Both are appended at submit and
// removed with the queue entry, so a job's Demand and Walltime must not
// change while it waits. nextBackfill runs the whole EASY test — fits free,
// and ends by the shadow time or fits extra — over the columns, with the
// free and extra limits packed once per call: per limit, a subtraction of
// the demand key from the guarded limit key and a mask (lanes.go), and
// now+wall <= shadow for the walltime. This package owns that test and its
// layout; the kernel set lends only a four-words-a-step form of the same
// expression (internal/nn/kernel's BackfillScan4, in the avx2 set), which
// runs over the whole four-job steps from the scan's start, and this
// package's one-job loop takes the rest, or all of it where the set has no
// such form (the go set, as in a purego build). Integer logic and one IEEE
// add and ordered compare a job give the same index either way, so no set
// moves a schedule.
// A lost guard proves a demand exceeds a limit, so the scan never refuses a
// job the test passes; nextBackfill confirms the job it stops at with the
// full comparison and resumes after a refusal, so it is exact on every
// system. Only a clamped lane (more than eight resources, or a capacity
// above a lane's largest value; no builtin system) can cause a refusal, and
// a job confirmed is the job the pass starts next, which it reads anyway.
// A run allocates for set-up and for slices that grow, not per job, per
// event or per round (TestFCFSAllocationsPerJob,
// TestLoadOfAscendingIDsAllocatesOnce).
//
// # The round
//
// WindowPolicy is the scheduling round of §III-C: it asks its Picker for a
// job from the window at the front of the queue, starts each pick that
// fits, reserves the first that does not, and runs the EASY pass around it.
// The Picker is the one place a round asks for a decision; internal/sched
// names the pickers. A pick is moot where no waiting job fits the free
// resources (PickContext.Startable, the free half of the EASY test over the
// demand columns): the round reserves it and every EASY candidate must fit
// free, so nothing starts; the next round rewrites the reservation and the
// pass's memos hold for any reserved job. So a Picker may answer a moot pick
// as it likes, drawing any randomness as before: an evaluating MRSch actor
// answers without its model (core.MRSchActor.Pick), and the reference
// differential (internal/sched) answers otherwise and must still match every
// start time.
//
// # The EASY pass
//
// backfill is the whole of multi-resource EASY backfilling around the job
// the round reserved: it takes the reservation's shadow time and
// spare vector (extra) from a walk of the running set, free from the
// cluster, and starts, in queue order, every waiting job that fits free and
// either ends by its walltime at or before the shadow time or fits extra,
// charging extra for the jobs that do not end by then. Every input it reads
// — the queue and its columns, the clock, the cluster — is this package's,
// so the two memos below need no key naming another package's state.
//
// A scan ends once no unit of resource 0 is free: job.Validate, which Load
// applies, requires Demand[0] >= 1. It also begins behind jobs it need not
// ask again. The test is monotone in its limits: a job that does not fit
// free does not fit less, likewise extra, and now+Walltime <= shadow only
// gets harder as now grows and shadow shrinks (floating-point addition is
// monotone: this is exact). When a scan ends, every job still waiting was
// refused under limits at least its final ones, or not asked because free[0]
// was zero. The simulator keeps those limits and the count of jobs waiting,
// and begins the next scan behind them when free, extra and shadow are all at
// most the kept ones. Jobs leave the queue only through startAt, which
// decrements the count when it removes one below it — whether the round,
// the pass or a policy's StartJob called it — and join only at its
// end; the clock never goes back. So the count always covers exactly the
// refused jobs still waiting, and no case changes which jobs pass.
//
// The walk (cluster.EarliestFit) adds each running job's demand back to the
// free vector in (EstEnd, JobID) order until the reserved job fits. The
// entry it stops at and the spare vector there depend only on the free
// vector, the running set and the demand; now enters once, as the shadow
// max(EstEnd, now). So the simulator keeps its last walk under the reserved
// *job.Job and the cluster's Version (every Allocate, Release and Reset moves
// it), and while both hold a pass takes the walk's spare vector and
// max(its shadow, now) instead of walking: max(max(E, now0), now1) is
// max(E, now1) for now1 >= now0, which Step guarantees. A pass hits when
// nothing started or finished since the last walk and the same job is
// reserved: typically an arrival behind the same blocked job.
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
