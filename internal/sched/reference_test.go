package sched

import (
	"math"
	"slices"
	"sort"

	"repro/internal/job"
)

// The reference scheduler, written from the paper's §III-C and the
// multi-resource EASY backfilling of "Scheduling Beyond CPUs for HPC" and
// sharing no code with the simulator or the window policy: this file imports
// job for the input type and nothing else of the module
// (TestReferenceImportsOnlyJob), keeps plain slices, and recomputes what it
// reads — the free vector, the order of the running jobs, the shadow time —
// from scratch every time it reads it. The differential in
// reference_diff_test.go holds sim plus WindowPolicy to it, start time for
// start time. Its rules:
//
//   - Events. The clock moves to the earliest pending submit or actual end
//     (start + runtime). At one instant every job that ends there finishes,
//     in the order the jobs started, before any job submitted there joins the
//     queue, in trace order among equal submits; then one scheduling round
//     runs, whether or not anything waits.
//   - A round (§III-C). The window is the first W waiting jobs. The picker
//     chooses one of them (an index outside the window means the head); if
//     it fits what is free it starts and the round picks again. The first
//     choice that does not fit is reserved, the queue is backfilled around
//     it, and the round ends.
//   - The reservation (EASY). Walk the running jobs in order of estimated
//     end (start + walltime; ties by job ID), adding each one's demand back
//     to what is free, and stop at the first after which the reserved job
//     fits. The shadow time is that job's estimated end, or now if that is
//     past; the extra vector is what the walk has freed, less the reserved
//     demand.
//   - Backfill (EASY). Every waiting job, in queue order, starts if it fits
//     what is free and either its walltime ends it by the shadow time or its
//     demand fits extra; one that does not end by the shadow time takes its
//     demand out of extra.

// refPicker chooses a job from the window at one instant: an index into
// window.
type refPicker func(now float64, window []*job.Job) int

type refRun struct {
	j           *job.Job
	end, estEnd float64
}

type refState struct {
	caps       []int
	w          int
	pick       refPicker
	queue      []*job.Job
	running    []refRun // in start order
	starts     map[int]float64
	backfilled int
}

// referenceStarts schedules trace on a system of capacities caps with a
// window of w jobs and returns every job's start time by ID, and how many
// jobs started by backfilling. It does not modify the jobs.
func referenceStarts(caps []int, trace []*job.Job, w int, pick refPicker) (map[int]float64, int) {
	pending := slices.Clone(trace)
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].Submit < pending[b].Submit })
	rs := &refState{caps: caps, w: w, pick: pick, starts: map[int]float64{}}
	for len(pending) > 0 || len(rs.running) > 0 {
		now := math.Inf(1)
		if len(pending) > 0 {
			now = pending[0].Submit
		}
		for _, r := range rs.running {
			now = min(now, r.end)
		}
		rs.running = slices.DeleteFunc(rs.running, func(r refRun) bool { return r.end == now })
		for len(pending) > 0 && pending[0].Submit == now {
			rs.queue, pending = append(rs.queue, pending[0]), pending[1:]
		}
		rs.round(now)
	}
	return rs.starts, rs.backfilled
}

func (rs *refState) round(now float64) {
	for len(rs.queue) > 0 {
		window := rs.queue[:min(rs.w, len(rs.queue))]
		i := rs.pick(now, window)
		if i < 0 || i >= len(window) {
			i = 0
		}
		j := rs.queue[i]
		if !refFits(j.Demand, rs.free()) {
			rs.backfill(now, j)
			return
		}
		rs.start(j, now)
	}
}

func (rs *refState) backfill(now float64, reserved *job.Job) {
	shadow, extra := rs.shadow(now, reserved.Demand)
	for _, j := range slices.Clone(rs.queue) {
		endsBy := now+j.Walltime <= shadow
		if j == reserved || !refFits(j.Demand, rs.free()) || !(endsBy || refFits(j.Demand, extra)) {
			continue
		}
		rs.start(j, now)
		rs.backfilled++
		if !endsBy {
			for r, d := range j.Demand {
				extra[r] -= d
			}
		}
	}
}

func (rs *refState) shadow(now float64, demand []int) (float64, []int) {
	byEnd := slices.Clone(rs.running)
	sort.Slice(byEnd, func(a, b int) bool {
		if byEnd[a].estEnd != byEnd[b].estEnd {
			return byEnd[a].estEnd < byEnd[b].estEnd
		}
		return byEnd[a].j.ID < byEnd[b].j.ID
	})
	avail := rs.free()
	for _, r := range byEnd {
		for k, d := range r.j.Demand {
			avail[k] += d
		}
		if refFits(demand, avail) {
			for k, d := range demand {
				avail[k] -= d
			}
			return max(r.estEnd, now), avail
		}
	}
	panic("reference: a demand within capacity never fits")
}

func (rs *refState) start(j *job.Job, now float64) {
	rs.queue = slices.DeleteFunc(rs.queue, func(q *job.Job) bool { return q == j })
	rs.running = append(rs.running, refRun{j: j, end: now + j.Runtime, estEnd: now + j.Walltime})
	rs.starts[j.ID] = now
}

// free is the capacity less every running job's demand.
func (rs *refState) free() []int {
	free := slices.Clone(rs.caps)
	for _, r := range rs.running {
		for k, d := range r.j.Demand {
			free[k] -= d
		}
	}
	return free
}

func refFits(demand, free []int) bool {
	for k, d := range demand {
		if d > free[k] {
			return false
		}
	}
	return true
}
