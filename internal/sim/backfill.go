package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/nn/kernel"
)

// easy is what the EASY pass keeps from one round to the next: the limits of
// the scan in progress and those the last one ended with, how many waiting
// jobs that scan refused under them, and the last reservation walk.
type easy struct {
	lim, held limits
	refused   int // queue[:refused] was refused under held; startAt keeps it
	carried   int // scans that began behind refused jobs (the tests' floor)
	walk      walk
}

// limits are the three bounds of the EASY test, which is monotone in each.
type limits struct {
	free   []int   // units free now
	extra  []int   // units spare at the shadow time, after the reservation
	shadow float64 // the earliest start of the reserved job
}

// walk is one EarliestFit walk for a reserved job at a cluster version: its
// shadow time (-1 when the demand can never fit) and the spare vector there,
// the reserved job's share taken.
type walk struct {
	reserved *job.Job
	version  uint64
	shadow   float64
	extra    []int
}

// backfill is multi-resource EASY backfilling around reserved, the job the
// round reserved: it starts, in queue order, every waiting job that does not
// delay reserved — one that fits free and either ends, by its walltime, at
// or before the shadow time or fits the resources spare there. The reserved job needs no test of its own: it did not fit a moment
// ago and free only shrinks. The package doc says when the shadow walk is
// reused and where the scan begins and ends.
func (s *Simulator) backfill(reserved *job.Job) {
	e, cl := &s.easy, s.cl
	w, lim := &e.walk, &e.lim
	if w.reserved != reserved || w.version != cl.Version() {
		w.reserved, w.version = reserved, cl.Version()
		w.shadow, w.extra = cl.EarliestFit(reserved.Demand, s.clk, w.extra)
		for r := range w.extra {
			w.extra[r] -= reserved.Demand[r]
		}
	}
	if w.shadow < 0 {
		return
	}
	lim.shadow = max(w.shadow, s.clk)
	lim.extra = append(lim.extra[:0], w.extra...)
	lim.free = lim.free[:0]
	for r := range lim.extra {
		lim.free = append(lim.free, cl.Free(r))
	}
	free, extra, shadow := lim.free, lim.extra, lim.shadow
	i := 0
	if h := &e.held; e.refused > 0 && shadow <= h.shadow && cluster.Fits(free, h.free) && cluster.Fits(extra, h.extra) {
		i = e.refused
		e.carried++
	}
	for free[0] > 0 {
		if i = s.nextBackfill(i, free, extra, shadow); i == len(s.queue) {
			break
		}
		demand, endsBeforeShadow := s.queue[i].Demand, s.clk+s.qWall[i] <= shadow
		if err := s.startAt(i); err != nil {
			panic(fmt.Sprintf("sim: backfill start: %v", err))
		}
		for r, d := range demand {
			free[r] -= d
			if !endsBeforeShadow {
				// The job borrows shadow-time capacity; charge it against the
				// reservation's leftovers so later candidates cannot overdraw.
				extra[r] -= d
			}
		}
	}
	e.lim, e.held = e.held, e.lim
	e.refused = len(s.queue) // every job in it was refused under limits no smaller than held
}

// nextBackfill returns the index of the first waiting job at or after i
// (i >= 0) that passes the EASY test for the limits free, extra and shadow,
// or max(i, len(queue)) when none does. The test runs over the demand keys
// and the walltime column (scan), which refuses no job the test passes. The
// job it stops at is confirmed in full, and the scan resumes after a
// refusal, which only a clamped lane (see lanes) can cause.
func (s *Simulator) nextBackfill(i int, free, extra []int, shadow float64) int {
	l := s.lanes
	fkey, ekey := l.key(free)|l.guard, l.key(extra)|l.guard
	for ; ; i++ {
		i = s.scan(i, fkey, ekey, shadow)
		if i >= len(s.queue) {
			return i
		}
		if d := s.queue[i].Demand; cluster.Fits(d, free) && (s.clk+s.qWall[i] <= shadow || cluster.Fits(d, extra)) {
			return i
		}
	}
}

// scan returns the first k >= i whose demand key and walltime pass the test
// against the limit keys free and extra, or max(i, len(qKey)): in the
// active kernel set's BackfillScan4 over as many whole four-job steps as
// reach from i when the set has one, and a job at a time after them.
func (s *Simulator) scan(i int, free, extra uint64, shadow float64) int {
	keys, walls, guard, now := s.qKey, s.qWall[:len(s.qKey)], s.lanes.guard, s.clk
	if n, scan4 := (len(keys)-i)&^3, kernel.Active().BackfillScan4; scan4 != nil && n > 0 {
		if k := scan4(keys[i:i+n], walls[i:i+n], free, extra, guard, now, shadow); k < n {
			return i + k
		}
		i += n
	}
	for ; i < len(keys); i++ {
		if k := keys[i]; (free-k)&guard == guard && (now+walls[i] <= shadow || (extra-k)&guard == guard) {
			break
		}
	}
	return i
}
