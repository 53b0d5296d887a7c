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

// Startable reports whether some job in Queue fits the cluster's free
// resources. When none does, the round starts nothing whatever the Picker
// returns: the picked job does not fit, so WindowPolicy reserves it, and
// every EASY candidate must fit the free resources, so the backfill pass
// starts nothing either. The reservation is rewritten by the next round and
// the pass's memos hold for any reserved job, so the pick cannot change the
// schedule — an evaluating Picker may answer it without its model, as long as
// any randomness it draws is drawn as before.
func (ctx *PickContext) Startable() bool {
	for _, j := range ctx.Queue {
		if ctx.Cluster.CanFit(j.Demand) {
			return true
		}
	}
	return false
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
// computation) and the simulator EASY-backfills the remaining queue around
// the reservation (sim.Simulator.Backfill). A window size of 10 matches the
// paper's experiments.
//
// A WindowPolicy drives one simulator at a time: the PickContext it hands
// to Picker and OnDecision (and the Usage vector in it) is reused from one
// pick to the next, so neither may keep it past the call.
type WindowPolicy struct {
	Picker   Picker
	W        int
	Backfill bool

	// OnDecision, when set, observes every pick, moot ones included (see
	// PickContext.Startable). Its one product user is serve.SampleRequests,
	// which captures every decision instant as a load-generation request;
	// episodes are recorded by rollout actors, and Figures 8/9 sample goal
	// vectors through core.MRSch.GoalHook.
	OnDecision func(ctx *PickContext, pick int)

	ctx PickContext // the context of the pick in progress
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
			continue
		}
		// The selected job cannot start: reserve it and backfill around it.
		s.Reserved = j
		if wp.Backfill {
			s.Backfill(j)
		}
		return
	}
}

// Shadow is the reservation shadow-time computation, walked afresh: the
// earliest start for demand and the spare capacity vector after the reserved
// job claims its share at that time. It is the oracle the simulator's reused
// walk and the property suite are held to.
func Shadow(cl *cluster.Cluster, demand []int, now float64) (shadow float64, extra []int) {
	shadow, extra = cl.EarliestFit(demand, now, nil)
	for r := range extra {
		extra[r] -= demand[r]
	}
	return shadow, extra
}
