package sched

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// PickContext is the information available to a scheduling method at one
// decision instant: the window of candidate jobs, the whole queue, the live
// cluster, and the instantaneous measurement vector.
type PickContext struct {
	Now     float64
	Window  []*job.Job
	Queue   []*job.Job
	Cluster *cluster.Cluster
	Usage   []float64 // used fraction per resource (the measurement vector)
}

// Picker selects which window job to schedule next, returning an index into
// ctx.Window. Out-of-range returns are treated as 0 (head of queue), which
// makes FCFS the universal fallback.
type Picker interface {
	Pick(ctx *PickContext) int
}

// PickerFunc adapts a function to the Picker interface.
type PickerFunc func(ctx *PickContext) int

// Pick implements Picker.
func (f PickerFunc) Pick(ctx *PickContext) int { return f(ctx) }

// FCFS picks the oldest waiting job — the paper's Heuristic baseline, the
// multi-resource extension of first-come-first-serve list scheduling.
type FCFS struct{}

// Pick implements Picker.
func (FCFS) Pick(*PickContext) int { return 0 }

// WindowPolicy is the shared scheduling driver (§III-C). At every scheduling
// instance it repeatedly asks the Picker for a job from the window at the
// front of the queue: jobs that fit start immediately; the first selection
// that does not fit is reserved (its resources held via the shadow-time
// computation) and the remaining queue is EASY-backfilled around the
// reservation. A window size of 10 matches the paper's experiments.
//
// A WindowPolicy drives one simulator at a time: the PickContext it hands
// to Picker and OnDecision (and the Usage vector in it) is reused from one
// pick to the next, so neither may keep it past the call.
type WindowPolicy struct {
	Picker   Picker
	W        int
	Backfill bool

	// OnDecision, when set, observes every pick (training and analysis hook:
	// the RL methods record trajectories with it, Figures 8/9 sample the
	// goal vector with it).
	OnDecision func(ctx *PickContext, pick int)

	ctx PickContext // the context of the pick in progress

	// The limits of the EASY scan in progress, and those the last one ended
	// with: under held, heldSim.Queue()[:heldN], ending in heldLast, was refused.
	lim, held limits
	heldSim   *sim.Simulator
	heldN     int
	heldLast  *job.Job
	carried   int // scans that began behind refused jobs (the tests' floor)

	walk walk // the last shadow walk, reused while its key holds
}

// walk is one EarliestFit walk for a reserved job, keyed by the cluster and
// its version and the clock it ran at: its shadow time (-1 when the demand
// can never fit) and the spare vector there.
type walk struct {
	cl       *cluster.Cluster
	version  uint64
	reserved *job.Job
	now      float64
	shadow   float64
	extra    []int
}

// limits are the three bounds of the EASY test, which is monotone in each.
type limits struct {
	free   []int   // units free now
	extra  []int   // units spare at the shadow time, after the reservation
	shadow float64 // the earliest start of the reserved job
}

// NewWindowPolicy builds a policy with EASY backfilling enabled.
func NewWindowPolicy(p Picker, w int) *WindowPolicy {
	if w <= 0 {
		w = 10
	}
	return &WindowPolicy{Picker: p, W: w, Backfill: true}
}

// OnSchedule implements sim.Policy.
func (wp *WindowPolicy) OnSchedule(s *sim.Simulator) {
	cl := s.Cluster()
	for {
		queue := s.Queue()
		if len(queue) == 0 {
			s.Reserved = nil
			return
		}
		w := min(wp.W, len(queue))
		ctx := &wp.ctx
		*ctx = PickContext{
			Now:     s.Now(),
			Window:  queue[:w],
			Queue:   queue,
			Cluster: cl,
			Usage:   cl.AppendUsage(ctx.Usage[:0]),
		}
		idx := wp.Picker.Pick(ctx)
		if idx < 0 || idx >= w {
			idx = 0
		}
		if wp.OnDecision != nil {
			wp.OnDecision(ctx, idx)
		}
		j := queue[idx]
		if cl.CanFit(j.Demand) {
			if err := s.StartAt(idx); err != nil {
				// CanFit held, so failure indicates a framework bug.
				panic(fmt.Sprintf("sched: start after CanFit: %v", err))
			}
			if idx < wp.heldN {
				wp.heldN-- // one of the refused jobs left the queue
			}
			continue
		}
		// The selected job cannot start: reserve it and backfill around it.
		s.Reserved = j
		if wp.Backfill {
			wp.easyBackfill(s, j)
		}
		return
	}
}

// easyBackfill implements multi-resource EASY backfilling: queued jobs may
// jump ahead of the reserved job only if they do not delay it — either they
// finish (by walltime estimate) before the reservation's shadow time, or
// they fit entirely within the resources left over at the shadow time.
//
// The scan asks the simulator for the next waiting job that passes the
// whole test and touches a *Job only to start it; starting one removes it at
// the index the scan holds, which is where the scan asks again. The
// reserved job needs no test of its own: it did not fit a moment ago and
// free only shrinks. The package doc says where the scan begins and ends.
func (wp *WindowPolicy) easyBackfill(s *sim.Simulator, reserved *job.Job) {
	cl, now, lim := s.Cluster(), s.Now(), &wp.lim
	if wp.reserve(cl, reserved, now); lim.shadow < 0 {
		return
	}
	lim.free = lim.free[:0]
	for r := range lim.extra {
		lim.free = append(lim.free, cl.Free(r))
	}
	free, extra, shadow := lim.free, lim.extra, lim.shadow
	i := 0
	if q, h := s.Queue(), &wp.held; wp.heldSim == s && wp.heldN > 0 && wp.heldN <= len(q) && q[wp.heldN-1] == wp.heldLast &&
		shadow <= h.shadow && cluster.Fits(free, h.free) && cluster.Fits(extra, h.extra) {
		i = wp.heldN
		wp.carried++
	}
	for free[0] > 0 {
		if i = s.NextBackfill(i, free, extra, shadow); i == len(s.Queue()) {
			break
		}
		cand := s.Queue()[i]
		endsBeforeShadow := now+cand.Walltime <= shadow
		if err := s.StartAt(i); err != nil {
			panic(fmt.Sprintf("sched: backfill start: %v", err))
		}
		for r, d := range cand.Demand {
			free[r] -= d
			if !endsBeforeShadow {
				// The job borrows shadow-time capacity; charge it against the
				// reservation's leftovers so later candidates cannot overdraw.
				extra[r] -= d
			}
		}
	}
	q := s.Queue() // every job of it was refused under limits no smaller than lim
	wp.lim, wp.held = wp.held, wp.lim
	wp.heldSim, wp.heldN, wp.heldLast = s, len(q), q[len(q)-1]
}

// reserve sets lim.shadow and lim.extra for reserved at now: from the last
// walk while the cluster, its version and the reserved job are the ones it
// ran for and the clock has not gone back, from a new walk otherwise. The
// package doc says why a reused walk is exact.
func (wp *WindowPolicy) reserve(cl *cluster.Cluster, reserved *job.Job, now float64) {
	w := &wp.walk
	if w.cl != cl || w.version != cl.Version() || w.reserved != reserved || now < w.now {
		w.shadow, w.extra = shadowInto(cl, reserved.Demand, now, w.extra)
		w.cl, w.version, w.reserved, w.now = cl, cl.Version(), reserved, now
	}
	wp.lim.shadow, wp.lim.extra = w.shadow, append(wp.lim.extra[:0], w.extra...)
	if w.shadow >= 0 {
		wp.lim.shadow = max(w.shadow, now)
	}
}

// Shadow exposes the reservation shadow-time computation for tests and
// analysis: the earliest start for demand and the spare capacity vector
// after the reserved job claims its share at that time.
func Shadow(cl *cluster.Cluster, demand []int, now float64) (shadow float64, extra []int) {
	return shadowInto(cl, demand, now, nil)
}

// shadowInto is Shadow with the spare-capacity vector built in dst[:0].
func shadowInto(cl *cluster.Cluster, demand []int, now float64, dst []int) (shadow float64, extra []int) {
	shadow, extra = cl.EarliestFit(demand, now, dst)
	if shadow < 0 {
		return -1, nil
	}
	for r := range extra {
		extra[r] -= demand[r]
	}
	return shadow, extra
}
