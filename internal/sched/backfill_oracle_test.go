package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
)

// snapshotBackfill is the retired easyBackfill: copy the queue, then test
// every copied candidate against CanFit, the shadow time and the spare
// capacity. It returns the IDs it started, in order, and the spare vector it
// ended with — the oracle for the in-place scan and its Free(0) early exit.
func snapshotBackfill(s *sim.Simulator, reserved *job.Job) (started, extra []int) {
	cl, now := s.Cluster(), s.Now()
	shadow, extra := Shadow(cl, reserved.Demand, now)
	candidates := slices.Clone(s.Queue())
	for _, cand := range candidates {
		if cand == reserved || !cl.CanFit(cand.Demand) {
			continue
		}
		endsBeforeShadow := now+cand.Walltime <= shadow
		fitsExtra := true
		for r, d := range cand.Demand {
			fitsExtra = fitsExtra && d <= extra[r]
		}
		if !endsBeforeShadow && !fitsExtra {
			continue
		}
		if err := s.StartJob(cand); err != nil {
			panic(err)
		}
		started = append(started, cand.ID)
		if !endsBeforeShadow {
			for r, d := range cand.Demand {
				extra[r] -= d
			}
		}
	}
	return started, extra
}

// Two simulators replay one random trace under one seeded random picker;
// one backfills in place, the other with the snapshot oracle. At every
// round that ends in a reservation they must have started the same jobs in
// the same order and be left with the same spare vector and queue.
func TestInPlaceBackfillMatchesSnapshotScan(t *testing.T) {
	multi := 0 // rounds that backfilled at least two jobs
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]*job.Job, 150)
		at := 0.0
		for i := range trace {
			at += float64(rng.Intn(4)) * 20 // bursts of simultaneous submits
			run := float64(50 * (1 + rng.Intn(8)))
			trace[i] = &job.Job{ID: i, Submit: at, Runtime: run, Walltime: run * float64(1+rng.Intn(3)),
				Demand: []int{1 + rng.Intn(12), rng.Intn(7)}}
		}
		// One log line per reservation round: what started, extra, queue.
		var logs [2][]string
		record := func(side int, s *sim.Simulator, started, extra []int) {
			if side == 0 && len(started) >= 2 {
				multi++
			}
			q := make([]int, len(s.Queue()))
			for i, j := range s.Queue() {
				q[i] = j.ID
			}
			logs[side] = append(logs[side], fmt.Sprintf("t=%v reserved=%d started=%v extra=%v queue=%v",
				s.Now(), s.Reserved.ID, started, extra, q))
		}

		inPlace := NewWindowPolicy(nil, 5)
		inPlace.Backfill = false // the test runs the backfill itself, to see its starts
		oracle := NewWindowPolicy(nil, 5)
		oracle.Backfill = false
		for side, wp := range []*WindowPolicy{inPlace, oracle} {
			pick := rand.New(rand.NewSource(seed))
			wp.Picker = PickerFunc(func(ctx *PickContext) int { return pick.Intn(len(ctx.Window)) })
			s := sim.New(cfg(), sim.PolicyFunc(func(s *sim.Simulator) {
				wp.OnSchedule(s)
				if s.Reserved == nil {
					return
				}
				if wp == oracle {
					started, extra := snapshotBackfill(s, s.Reserved)
					record(side, s, started, extra)
					return
				}
				before := slices.Clone(s.Queue())
				wp.easyBackfill(s, s.Reserved)
				var started []int
				for _, j := range before { // the scan starts jobs in queue order
					if j.State == job.Running {
						started = append(started, j.ID)
					}
				}
				record(side, s, started, wp.extra)
			}))
			if err := s.Load(job.CloneAll(trace)); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			for _, j := range s.Finished() {
				logs[side] = append(logs[side], fmt.Sprintf("job %d ran %v..%v", j.ID, j.Start, j.End))
			}
		}
		for i := range logs[0] {
			if i >= len(logs[1]) || logs[0][i] != logs[1][i] {
				t.Fatalf("seed %d, line %d:\n in place: %s\n snapshot: %s", seed, i, logs[0][i], logs[1][min(i, len(logs[1])-1)])
			}
		}
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("seed %d: %d lines in place, %d with the snapshot scan", seed, len(logs[0]), len(logs[1]))
		}
	}
	if multi < 100 {
		t.Fatalf("only %d rounds backfilled two or more jobs; the traces do not exercise the scan", multi)
	}
}
