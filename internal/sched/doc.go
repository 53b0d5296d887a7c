// Package sched implements the HPC scheduling framework shared by every
// method the paper compares: the window over the front of the waiting queue,
// advance reservation of the first unplaceable selection, and EASY
// backfilling (§II-A and §III-C). Individual scheduling methods plug in as
// Pickers: FCFS (this package), the genetic-algorithm optimizer
// (internal/ga), the scalar-reward policy gradient (internal/rl), and MRSch
// itself (internal/core).
//
// # Determinism
//
// The framework itself is deterministic: WindowPolicy consults its Picker
// and the simulator in fixed order, backfilling scans the waiting queue in
// arrival order, and no randomness or map iteration enters any decision.
// All stochastic behaviour lives inside Pickers and is seeded there — a
// WindowPolicy over a deterministic Picker replays identically. Rollout
// actors (core.MRSchActor, rl.Actor) are Pickers too, so parallel episode
// collection reuses this exact driver; the repo-wide determinism and
// seeding contract is documented in internal/rollout.
//
// # What a backfill scan skips
//
// A waiting job may start in a scan iff it fits free and (now+Walltime <=
// shadow or it fits extra). The simulator answers that whole test with
// sim.NextBackfill, which reads a packed demand key and a walltime per
// waiting job and returns the next job the scan starts, so the scan touches
// a *Job only to start it. The scan ends when free[0] is zero, since every
// job demands a unit of resource 0. It also begins behind jobs it need not
// ask again. The test is monotone in its limits: a job that does not fit
// free does not fit less, likewise extra, and now+Walltime <= shadow only
// gets harder as now grows and shadow shrinks (floating-point addition is
// monotone: this is exact). When a scan ends, every job still waiting was
// refused under limits at least its final ones, or not asked because
// free[0] was zero. The policy remembers those limits and how many queue
// entries they cover, decrements the count when its own window loop starts a
// covered job, and begins the next scan behind them if free, extra and
// shadow are all at most the remembered ones. It trusts none of this to its
// caller: the simulator must be the same (its clock only advances), and the
// last covered job must still sit at the last covered index — true exactly
// when no covered job left unseen, since entries only leave a queue or join
// its end. Moving a policy to another simulator, or starting a job behind its
// back through StartJob, costs one full scan; no case changes which jobs
// pass.
//
// # When the shadow walk is reused
//
// The reservation's shadow time and spare vector come from a walk of the
// running set (cluster.EarliestFit): from the free vector, add each running
// job's demand back in (EstEnd, JobID) order until the reserved job fits.
// The entry it stops at and the spare vector there depend only on the free
// vector, the running set and the demand; now enters once, as the shadow
// max(EstEnd, now). So the policy keeps its last walk under the cluster, the
// cluster's Version (every Allocate, Release and Reset moves it), the
// reserved *job.Job and the clock it ran at, and while all hold, a round
// takes the walk's spare vector and max(its shadow, now) instead of walking:
// max(max(E, now0), now1) is max(E, now1) for now1 >= now0. A round hits
// when nothing started or finished since the last walk and the same job is
// reserved: typically an arrival behind the same blocked job. A different
// cluster, a changed one, another reserved job or a clock that went back
// walks anew.
package sched
