// Package job defines the multi-resource HPC job model used throughout the
// reproduction and a plain-text trace format for persisting workloads.
//
// A job is rigid (fixed resource demand, as §I of the paper emphasizes for
// HPC), requests an integral number of units of each schedulable resource
// (nodes, burst-buffer TB, power kW, ...), and carries both its actual
// runtime (known to the trace/simulator) and the user-supplied walltime
// estimate (the only duration the scheduler may see).
package job

import (
	"fmt"
	"math"
	"sort"
)

// State is a job's position in its lifecycle.
type State int

// Job lifecycle states.
const (
	Queued State = iota
	Running
	Finished
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Job is a rigid multi-resource batch job. Times are seconds from the start
// of the trace. Demand[r] is the number of units of resource r requested;
// the meaning of a unit (node, TB, kW) is fixed by the cluster configuration
// the job is scheduled on.
type Job struct {
	ID       int
	Submit   float64
	Runtime  float64 // actual runtime from the trace; hidden from schedulers
	Walltime float64 // user-supplied estimate; what schedulers plan with
	Demand   []int
	// User attributes the job to a submitting user or project (0 =
	// unattributed). Ownership is workload metadata: schedulers in this
	// reproduction are user-blind, so User feeds per-user accounting
	// (metrics) and the Zipf-skew workload axis, never placement.
	User int

	// Simulation state, managed by internal/sim.
	State State
	Start float64
	End   float64
}

// Validate reports whether the job is well-formed for a system with
// resources capacities caps (nil caps skips the capacity check).
func (j *Job) Validate(caps []int) error {
	// NaN passes every ordered comparison below, and the simulator's event
	// heap and the cluster's ordered running set need comparable times.
	for _, t := range [...]float64{j.Submit, j.Runtime, j.Walltime} {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("job %d: submit %v, runtime %v or walltime %v is not finite", j.ID, j.Submit, j.Runtime, j.Walltime)
		}
	}
	if j.Submit < 0 {
		return fmt.Errorf("job %d: negative submit time %v", j.ID, j.Submit)
	}
	if j.Runtime <= 0 {
		return fmt.Errorf("job %d: non-positive runtime %v", j.ID, j.Runtime)
	}
	if j.Walltime <= 0 {
		return fmt.Errorf("job %d: non-positive walltime %v", j.ID, j.Walltime)
	}
	if len(j.Demand) == 0 {
		return fmt.Errorf("job %d: no resource demands", j.ID)
	}
	if caps != nil && len(caps) != len(j.Demand) {
		return fmt.Errorf("job %d: %d demands for %d resources", j.ID, len(j.Demand), len(caps))
	}
	for r, d := range j.Demand {
		if d < 0 {
			return fmt.Errorf("job %d: negative demand %d for resource %d", j.ID, d, r)
		}
		if caps != nil && d > caps[r] {
			return fmt.Errorf("job %d: demand %d exceeds capacity %d of resource %d", j.ID, d, caps[r], r)
		}
	}
	if j.Demand[0] <= 0 {
		return fmt.Errorf("job %d: primary resource demand must be positive", j.ID)
	}
	return nil
}

// Wait returns the queuing delay of a finished or running job.
func (j *Job) Wait() float64 { return j.Start - j.Submit }

// Slowdown returns the ratio of response time (wait+runtime) to runtime,
// the responsiveness metric of §IV-B.
func (j *Job) Slowdown() float64 {
	if j.Runtime <= 0 {
		return 1
	}
	return (j.Wait() + j.Runtime) / j.Runtime
}

// Clone returns a deep copy of the job with simulation state reset, so a
// single workload can be replayed through many schedulers independently.
func (j *Job) Clone() *Job {
	c := j.copyOnto(make([]int, len(j.Demand)))
	return &c
}

// copyOnto returns the job's trace fields with Demand copied into d
// (len(d) == len(j.Demand)) and simulation state reset.
func (j *Job) copyOnto(d []int) Job {
	copy(d, j.Demand)
	return Job{
		ID:       j.ID,
		Submit:   j.Submit,
		Runtime:  j.Runtime,
		Walltime: j.Walltime,
		Demand:   d,
		User:     j.User,
	}
}

// CloneAll deep-copies a slice of jobs, resetting simulation state: each
// copy equals its source's Clone field for field. The copies share three
// allocations — one []Job, one []int that every Demand is cut from, and the
// returned []*Job — so copying a trace costs the same whatever its length. A
// Demand's capacity is its length: appending to one reallocates it and
// cannot reach the next job's units. The price is lifetime: the two slabs
// live as long as any one job cut from them is reachable — a simulator keeps
// every job it was loaded with until it is dropped itself (Finished, which
// metrics.Collect reads) — so keep a single job out of a large copied trace
// with Clone, not by its pointer.
func CloneAll(jobs []*Job) []*Job {
	units := 0
	for _, j := range jobs {
		units += len(j.Demand)
	}
	slab := make([]Job, len(jobs))
	arena := make([]int, units)
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		n := len(j.Demand)
		slab[i] = j.copyOnto(arena[:n:n])
		arena = arena[n:]
		out[i] = &slab[i]
	}
	return out
}

// SortBySubmit orders jobs by submit time (stable on ID for ties), the order
// a trace-driven simulator replays them in.
func SortBySubmit(jobs []*Job) {
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].Submit != jobs[b].Submit {
			return jobs[a].Submit < jobs[b].Submit
		}
		return jobs[a].ID < jobs[b].ID
	})
}
