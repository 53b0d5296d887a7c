// Package cluster models a multi-resource HPC system: a set of schedulable
// resource pools (compute nodes, burst-buffer capacity, a power budget, ...)
// with unit-granular accounting, allocation/release, look-ahead queries used
// by reservation and EASY backfilling, and the per-unit availability data the
// MRSch state encoding consumes (§III-A of the paper).
//
// # The ordered running set
//
// A Cluster keeps its live allocations in one slice ordered by
// (EstEnd, JobID) and has no index by job. Allocate inserts where a binary
// search puts the key and refuses a key already live, so the order is total;
// Release takes the key the job was allocated with and refuses unless the
// entry the same search lands on has exactly that key. Running hands the
// slice out as a read-only view, and EarliestFit walks it directly. Job IDs
// unique among live allocations are the caller's part, kept where IDs arise
// (sim.Load, the decision daemon's request check); CheckInvariants checks it.
// Allocate rejects a NaN or infinite now or estEnd before it changes
// anything: a NaN key would send the search to the wrong element.
//
// Version counts the Allocate, Release and Reset calls that changed the
// cluster, so a look-ahead computed at one version holds at the same version.
// Its one reader is the simulator's EASY backfill pass (internal/sim),
// which reuses its last EarliestFit walk while the version and the reserved
// job are unchanged.
//
// Released *Alloc values (and their Demand backing arrays) are recycled by
// later Allocate calls, so a steady-state allocate/release cycle does not
// touch the heap. That is why the Running view, and every *Alloc in it, is
// valid only until the next Allocate, Release or Reset.
package cluster

import (
	"fmt"
	"math"
	"slices"
)

// Config describes a system: resource names and capacities in units. The
// unit is whatever the administrator chooses (§III-A): a node for CPU, a TB
// for burst buffer, a kW for power.
type Config struct {
	Name       string
	Resources  []string
	Capacities []int
}

// ResourceIndex returns the index of the named resource, or -1 when the
// configuration does not schedule it. Callers use it instead of hard-coding
// positional conventions ("power is index 2") that break as soon as a
// campaign spec reorders or extends the resource set.
func (c Config) ResourceIndex(name string) int {
	for i, r := range c.Resources {
		if r == name {
			return i
		}
	}
	return -1
}

// Validate checks the configuration is usable.
func (c *Config) Validate() error {
	if len(c.Resources) == 0 {
		return fmt.Errorf("cluster: config %q has no resources", c.Name)
	}
	if len(c.Resources) != len(c.Capacities) {
		return fmt.Errorf("cluster: config %q has %d resource names but %d capacities", c.Name, len(c.Resources), len(c.Capacities))
	}
	for i, cap := range c.Capacities {
		if cap <= 0 {
			return fmt.Errorf("cluster: config %q resource %s capacity %d must be positive", c.Name, c.Resources[i], cap)
		}
	}
	return nil
}

// Alloc records one running job's holdings. Values handed out by Running are
// read-only: EstEnd and JobID are the allocation's position in the ordered
// running set.
type Alloc struct {
	JobID  int
	Demand []int
	// Start is when the job began executing.
	Start float64
	// EstEnd is Start + the user walltime estimate — the completion time a
	// scheduler is allowed to plan with (§III-A).
	EstEnd float64
}

// Cluster is the live state of a multi-resource system.
type Cluster struct {
	cfg     Config
	free    []int
	running []*Alloc // live allocations ordered by (EstEnd, JobID)
	spare   []*Alloc // released allocations awaiting reuse
	version uint64   // calls that changed the cluster
}

// New creates an idle cluster from cfg. It panics on an invalid config (a
// configuration is program input, not runtime data).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	free := make([]int, len(cfg.Capacities))
	copy(free, cfg.Capacities)
	return &Cluster{cfg: cfg, free: free}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumResources returns the number of schedulable resources.
func (c *Cluster) NumResources() int { return len(c.cfg.Capacities) }

// Capacity returns the total units of resource r.
func (c *Cluster) Capacity(r int) int { return c.cfg.Capacities[r] }

// Free returns the currently free units of resource r.
func (c *Cluster) Free(r int) int { return c.free[r] }

// FreeVec returns a copy of the free-units vector.
func (c *Cluster) FreeVec() []int {
	out := make([]int, len(c.free))
	copy(out, c.free)
	return out
}

// Used returns capacity-free for resource r.
func (c *Cluster) Used(r int) int { return c.cfg.Capacities[r] - c.free[r] }

// Usage returns the used fraction of each resource — the paper's
// measurement vector <Resource A util, Resource B util, ...>.
func (c *Cluster) Usage() []float64 { return c.AppendUsage(nil) }

// AppendUsage appends the Usage vector to dst and returns the extended
// slice; a caller that decides once per round passes its previous vector
// resliced to [:0] and allocates nothing.
func (c *Cluster) AppendUsage(dst []float64) []float64 {
	for r, free := range c.free {
		dst = append(dst, float64(c.cfg.Capacities[r]-free)/float64(c.cfg.Capacities[r]))
	}
	return dst
}

// CanFit reports whether demand fits in the currently free resources.
func (c *Cluster) CanFit(demand []int) bool {
	return len(demand) == len(c.free) && Fits(demand, c.free)
}

// Allocate reserves demand for jobID from now until an estimated end time.
// It returns an error, with the cluster unchanged, if either time is NaN or
// infinite, (estEnd, jobID) is already live, or the demand does not fit.
func (c *Cluster) Allocate(jobID int, demand []int, now, estEnd float64) error {
	if !finite(now) || !finite(estEnd) {
		return fmt.Errorf("cluster: job %d has a non-finite start %v or estimated end %v", jobID, now, estEnd)
	}
	i, live := c.position(estEnd, jobID)
	if live {
		return fmt.Errorf("cluster: job %d already allocated until %v", jobID, estEnd)
	}
	if len(demand) != len(c.free) {
		return fmt.Errorf("cluster: job %d demand has %d resources, cluster has %d", jobID, len(demand), len(c.free))
	}
	if !Fits(demand, c.free) {
		return fmt.Errorf("cluster: job %d demand %v exceeds free %v", jobID, demand, c.free)
	}
	var a *Alloc
	if n := len(c.spare); n > 0 {
		a, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		a = new(Alloc)
	}
	*a = Alloc{JobID: jobID, Demand: append(a.Demand[:0], demand...), Start: now, EstEnd: estEnd}
	for r, need := range demand {
		c.free[r] -= need
	}
	c.running = append(c.running, nil)
	copy(c.running[i+1:], c.running[i:])
	c.running[i] = a
	c.version++
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// position returns the index in the ordered running set of the first
// allocation not before (estEnd, jobID), where that key is or would go, and
// whether it is there.
func (c *Cluster) position(estEnd float64, jobID int) (int, bool) {
	lo, hi := 0, len(c.running)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a := c.running[mid]; a.EstEnd < estEnd || (a.EstEnd == estEnd && a.JobID < jobID) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.running) && c.running[lo].EstEnd == estEnd && c.running[lo].JobID == jobID
}

// Release frees the resources held by jobID, allocated with the estimated
// end estEnd. On error the cluster is unchanged.
func (c *Cluster) Release(jobID int, estEnd float64) error {
	i, live := c.position(estEnd, jobID)
	if !live {
		return fmt.Errorf("cluster: job %d is not allocated until %v", jobID, estEnd)
	}
	a := c.running[i]
	for r, d := range a.Demand {
		if c.free[r]+d > c.cfg.Capacities[r] {
			return fmt.Errorf("cluster: release of job %d would overflow resource %d", jobID, r)
		}
	}
	for r, d := range a.Demand {
		c.free[r] += d
	}
	c.running = append(c.running[:i], c.running[i+1:]...)
	c.spare = append(c.spare, a)
	c.version++
	return nil
}

// Running returns the live allocations ordered by estimated end time then
// job ID (a deterministic order for look-ahead and encoding). The slice is
// the cluster's own ordered set, not a copy: callers must not modify it or
// the allocations it points to, and it is valid only until the next
// Allocate, Release or Reset (see the package documentation).
func (c *Cluster) Running() []*Alloc { return c.running }

// NumRunning returns the number of live allocations.
func (c *Cluster) NumRunning() int { return len(c.running) }

// Version returns the number of calls that changed the cluster (see the
// package documentation).
func (c *Cluster) Version() uint64 { return c.version }

// Reset returns the cluster to idle.
func (c *Cluster) Reset() {
	copy(c.free, c.cfg.Capacities)
	c.spare = append(c.spare, c.running...)
	c.running = c.running[:0]
	c.version++
}

// EarliestFit returns the earliest time >= now at which demand fits,
// assuming every running job releases its resources at its estimated end
// (walltime-based — the scheduler's view). The second return is the free
// vector at that time, appended to dst[:0] (pass nil for a fresh one). A
// demand that can never fit (exceeds capacity) returns (-1, nil).
func (c *Cluster) EarliestFit(demand []int, now float64, dst []int) (float64, []int) {
	for r, d := range demand {
		if d > c.cfg.Capacities[r] {
			return -1, nil
		}
	}
	free := append(dst[:0], c.free...)
	if Fits(demand, free) {
		return now, free
	}
	for _, a := range c.running {
		for r, d := range a.Demand {
			free[r] += d
		}
		if Fits(demand, free) {
			return max(a.EstEnd, now), free
		}
	}
	// All running jobs released and it still doesn't fit: impossible since
	// we checked capacity; defensive fallback.
	return -1, nil
}

// Fits reports whether demand is at most free in every resource.
func Fits(demand, free []int) bool {
	for r, d := range demand {
		if d > free[r] {
			return false
		}
	}
	return true
}

// CheckInvariants verifies conservation — free + sum(alloc demands) equals
// capacity for every resource — that the running set is strictly ordered by
// (EstEnd, JobID), and that no job ID is live twice. Tests call this after
// mutation sequences.
func (c *Cluster) CheckInvariants() error {
	ids := make([]int, len(c.running))
	for i, a := range c.running {
		if at, _ := c.position(a.EstEnd, a.JobID); at != i {
			return fmt.Errorf("cluster: running[%d] (job %d, est. end %v) is out of order", i, a.JobID, a.EstEnd)
		}
		ids[i] = a.JobID
	}
	if slices.Sort(ids); len(slices.Compact(ids)) != len(c.running) {
		return fmt.Errorf("cluster: a job ID is allocated twice")
	}
	for r := range c.free {
		total := c.free[r]
		for _, a := range c.running {
			total += a.Demand[r]
		}
		if total != c.cfg.Capacities[r] {
			return fmt.Errorf("cluster: resource %d accounts for %d units, capacity %d", r, total, c.cfg.Capacities[r])
		}
		if c.free[r] < 0 {
			return fmt.Errorf("cluster: resource %d free is negative: %d", r, c.free[r])
		}
	}
	return nil
}
