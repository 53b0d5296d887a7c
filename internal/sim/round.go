package sim

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/job"
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

	sim *Simulator // the simulator whose round built the context, or nil
}

// Startable reports whether some job in Queue fits the cluster's free
// resources; where none does, the pick is moot (the package doc's "The
// round"). A round's context answers from the simulator's demand columns,
// with the free half of the EASY test. A context no round built reports
// true: its pick is assumed to matter.
func (ctx *PickContext) Startable() bool {
	s := ctx.sim
	if s == nil {
		return true
	}
	s.free = s.free[:0]
	for r := range s.cl.NumResources() {
		s.free = append(s.free, s.cl.Free(r))
	}
	// Extra equal to free and an infinite shadow leave only "fits free".
	return s.nextBackfill(0, s.free, s.free, math.Inf(1)) < len(s.queue)
}

// Picker selects which window job to schedule next, returning an index into
// ctx.Window. Out-of-range returns are treated as 0 (head of queue), which
// makes first-come-first-serve the universal fallback.
type Picker interface {
	Pick(ctx *PickContext) int
}

// PickerFunc adapts a function to the Picker interface.
type PickerFunc func(ctx *PickContext) int

// Pick implements Picker.
func (f PickerFunc) Pick(ctx *PickContext) int { return f(ctx) }

// WindowPolicy is the scheduling round (§III-C; the package doc's "The
// round") over a window of W jobs; 10 matches the paper's experiments. It
// drives one simulator at a time: the PickContext it hands to Picker (and
// the Usage vector in it) is reused from one pick to the next, so a Picker
// may not keep it past the call.
type WindowPolicy struct {
	Picker   Picker
	W        int
	Backfill bool

	ctx PickContext // the context of the pick in progress
}

// NewWindowPolicy builds a policy with EASY backfilling enabled.
func NewWindowPolicy(p Picker, w int) *WindowPolicy {
	if w <= 0 {
		w = 10
	}
	return &WindowPolicy{Picker: p, W: w, Backfill: true}
}

// OnSchedule implements Policy.
func (wp *WindowPolicy) OnSchedule(s *Simulator) {
	cl := s.Cluster()
	for {
		queue := s.Queue()
		if len(queue) == 0 {
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
			sim:     s,
		}
		idx := wp.Picker.Pick(ctx)
		if idx < 0 || idx >= w {
			idx = 0
		}
		j := queue[idx]
		if cl.CanFit(j.Demand) {
			if err := s.startAt(idx); err != nil {
				// CanFit held, so failure indicates a framework bug.
				panic(fmt.Sprintf("sim: start after CanFit: %v", err))
			}
			continue
		}
		// The selected job cannot start: reserve it and backfill around it.
		if wp.Backfill {
			s.backfill(j)
		}
		return
	}
}
