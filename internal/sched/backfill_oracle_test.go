package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// snapshotBackfill is the retired easyBackfill: copy the queue, then test
// every copied candidate against CanFit, the shadow time and the spare
// capacity. It returns the IDs it started, in order, and the spare vector it
// ended with — the oracle for the scan that asks sim.NextBackfill, ends when
// Free(0) is zero and begins behind the jobs the previous scan refused.
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

// oracleCase shapes the traces of one differential run.
type oracleCase struct {
	sys cluster.Config
	// walltimeOver are the walltime/runtime ratios a job draws from; a ratio
	// below one is an overdue estimate: the job outlives its EstEnd, the
	// shadow time can equal now, and it can grow from one round to the next.
	walltimeOver []float64
	// intrude wraps the policy in one that starts a waiting job that fits
	// through StartJob, behind the policy's back, after every other round.
	intrude bool
	// reuse drives the same WindowPolicy over a second simulator, loaded
	// with the very same *Job values, after cutting the first one short.
	reuse bool
}

func (c oracleCase) trace(rng *rand.Rand) []*job.Job {
	trace := make([]*job.Job, 150)
	at := 0.0
	for i := range trace {
		// Submits in bursts on a 20 s grid, runtimes on a 50 s grid: many
		// instants have several submits, or finishes and submits together.
		at += float64(rng.Intn(4)) * 20
		run := float64(50 * (1 + rng.Intn(8)))
		demand := make([]int, len(c.sys.Capacities))
		for r, n := range c.sys.Capacities {
			demand[r] = rng.Intn(n*3/4 + 1)
		}
		demand[0]++
		trace[i] = &job.Job{ID: i, Submit: at, Runtime: run, Demand: demand,
			Walltime: run * c.walltimeOver[rng.Intn(len(c.walltimeOver))]}
	}
	return trace
}

// Two simulators replay one random trace under one seeded random picker;
// one backfills with easyBackfill, the other with the snapshot oracle. At
// every round that ends in a reservation they must have started the same
// jobs in the same order and be left with the same spare vector and queue.
func TestInPlaceBackfillMatchesSnapshotScan(t *testing.T) {
	two := cfg()
	three := cluster.Config{Name: "t3", Resources: []string{"nodes", "bb", "power_kw"}, Capacities: []int{16, 8, 40}}
	// A lane of the demand key holds 2^20-1 here: the third resource clamps.
	wide := cluster.Config{Name: "wide", Resources: []string{"nodes", "bb", "bytes"}, Capacities: []int{16, 8, 3 << 20}}
	for name, c := range map[string]oracleCase{
		"estimates hold":    {sys: two, walltimeOver: []float64{1, 2, 3}},
		"overdue":           {sys: two, walltimeOver: []float64{0.4, 1, 2}},
		"three resources":   {sys: three, walltimeOver: []float64{0.5, 1, 3}},
		"clamped lane":      {sys: wide, walltimeOver: []float64{1, 2}},
		"intruding hook":    {sys: two, walltimeOver: []float64{0.5, 1, 2}, intrude: true},
		"policy used twice": {sys: three, walltimeOver: []float64{1, 2}, reuse: true},
	} {
		t.Run(name, func(t *testing.T) {
			multi, carried := 0, 0
			for seed := int64(1); seed <= 40; seed++ {
				m, c := c.run(t, seed)
				multi, carried = multi+m, carried+c
			}
			// The test must not pass by never exercising what it is about.
			if multi < 100 {
				t.Errorf("only %d rounds backfilled two or more jobs", multi)
			}
			t.Logf("%d rounds backfilled two or more jobs, %d scans were shortened", multi, carried)
			if carried < 400 {
				t.Errorf("only %d scans began behind jobs the previous one refused", carried)
			}
		})
	}
}

// run replays one seed's trace on both sides and fails on the first line on
// which they differ. It returns how many rounds backfilled at least two jobs
// and how many scans the carry-over shortened.
func (c oracleCase) run(t *testing.T, seed int64) (multi, carried int) {
	trace := c.trace(rand.New(rand.NewSource(seed)))
	// One log line per reservation round: what started, extra, queue.
	var logs [2][]string
	for side := range logs {
		wp := NewWindowPolicy(nil, 5)
		wp.Backfill = false // the test runs the backfill itself, to see its starts
		pick := rand.New(rand.NewSource(seed))
		wp.Picker = PickerFunc(func(ctx *PickContext) int { return pick.Intn(len(ctx.Window)) })
		record := func(s *sim.Simulator, started, extra []int) {
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
		policy := sim.PolicyFunc(func(s *sim.Simulator) {
			wp.OnSchedule(s)
			if s.Reserved == nil {
				return
			}
			if side == 1 {
				started, extra := snapshotBackfill(s, s.Reserved)
				record(s, started, extra)
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
			record(s, started, wp.held.extra)
		})
		jobs := job.CloneAll(trace)
		newSim := func() *sim.Simulator {
			if !c.intrude {
				return sim.New(c.sys, policy)
			}
			hook := rand.New(rand.NewSource(seed))
			return sim.New(c.sys, sim.PolicyFunc(func(s *sim.Simulator) {
				policy(s)
				if hook.Intn(2) != 0 {
					return
				}
				// The shortest waiting job that fits: it will often end
				// before the shadow time and leave every limit no larger.
				var short *job.Job
				for _, j := range s.Queue() {
					if s.Cluster().CanFit(j.Demand) && (short == nil || j.Walltime < short.Walltime) {
						short = j
					}
				}
				if short == nil {
					return
				}
				if err := s.StartJob(short); err != nil {
					t.Fatal(err)
				}
				logs[side] = append(logs[side], fmt.Sprintf("t=%v hook started %d", s.Now(), short.ID))
			}))
		}
		sims := []*sim.Simulator{newSim()}
		if c.reuse {
			sims[0].SetMaxEvents(40 + int(seed))
			sims = append(sims, newSim())
		}
		for n, s := range sims {
			if err := s.Load(jobs); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil && n == len(sims)-1 {
				t.Fatal(err)
			}
			for _, j := range s.Finished() {
				logs[side] = append(logs[side], fmt.Sprintf("job %d ran %v..%v", j.ID, j.Start, j.End))
			}
		}
		if side == 0 {
			carried = wp.carried
		}
	}
	for i := range logs[0] {
		if i >= len(logs[1]) || logs[0][i] != logs[1][i] {
			t.Fatalf("seed %d, line %d:\n  in place: %s\n snapshot: %s", seed, i, logs[0][i], logs[1][min(i, len(logs[1])-1)])
		}
	}
	if len(logs[0]) != len(logs[1]) {
		t.Fatalf("seed %d: %d lines in place, %d with the snapshot scan", seed, len(logs[0]), len(logs[1]))
	}
	return multi, carried
}

// What a scan proved is about one simulator's clock. Here the policy leaves
// simulator A, cut short, knowing that jobs 1 to 3 were refused at t=600
// under (free 1, extra 0, shadow 1000). Simulator B then starts job 0 ahead
// of them, as A did, and shows it jobs 1 and 3 at indices 0 and 1 under the
// same limits — but at t=400, when job 3 ends before the shadow time and
// must be backfilled.
func TestCarriedScanIsTiedToItsSimulator(t *testing.T) {
	jobs := []*job.Job{
		mk(0, 0, 1000, 15, 0),
		mk(1, 1, 100, 16, 0),
		mk(2, 600, 500, 1, 0),
		mk(3, 600, 500, 1, 0),
	}
	wp := NewWindowPolicy(FCFS{}, 10)
	a := sim.New(cfg(), wp)
	a.SetMaxEvents(2) // t=0, t=1, t=600
	if err := a.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err == nil || len(a.Queue()) != 3 {
		t.Fatalf("simulator A should stop with jobs 1 to 3 waiting: %v, %d waiting", err, len(a.Queue()))
	}

	jobs[1].Submit, jobs[3].Submit, jobs[2].Submit = 400, 400, 5000
	b := sim.New(cfg(), wp)
	if err := b.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if jobs[3].Start != 400 {
		t.Fatalf("job 3 started at %v in simulator B, want 400: the scan trusted what it learned in A", jobs[3].Start)
	}
}

// The reservation's walk is reused while its cluster, that cluster's version
// and the reserved job are the ones it ran for. At every round that reserves,
// the shadow and extra the policy plans with must be what a fresh Shadow
// gives, bit for bit: over random traces, with the policy moved between two
// simulators, and with the cluster Reset and rebuilt between rounds.
func TestReusedShadowMatchesFreshWalk(t *testing.T) {
	three := cluster.Config{Name: "t3", Resources: []string{"nodes", "bb", "power_kw"}, Capacities: []int{16, 8, 40}}
	for name, c := range map[string]struct{ reuse, reset bool }{
		"random traces":     {},
		"policy used twice": {reuse: true},
		"reset and rebuilt": {reset: true},
	} {
		t.Run(name, func(t *testing.T) {
			rounds, reused := 0, 0
			for seed := int64(1); seed <= 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				trace := oracleCase{sys: three, walltimeOver: []float64{0.5, 1, 2}}.trace(rng)
				wp := NewWindowPolicy(PickerFunc(func(ctx *PickContext) int { return rng.Intn(len(ctx.Window)) }), 5)
				wp.Backfill = false // the test backfills, after it has checked the walk
				policy := sim.PolicyFunc(func(s *sim.Simulator) {
					wp.OnSchedule(s)
					if r := s.Reserved; r != nil {
						cl, walkedAt := s.Cluster(), wp.walk.now
						wp.reserve(cl, r, s.Now())
						shadow, extra := Shadow(cl, r.Demand, s.Now())
						if wp.lim.shadow != shadow || !slices.Equal(wp.lim.extra, extra) {
							t.Fatalf("seed %d, t=%v, job %d reserved: planned shadow %v extra %v, a fresh walk gives %v %v",
								seed, s.Now(), r.ID, wp.lim.shadow, wp.lim.extra, shadow, extra)
						}
						rounds++
						if wp.walk.now == walkedAt && walkedAt != s.Now() {
							reused++
						}
						wp.easyBackfill(s, r)
					}
					if c.reset && rng.Intn(3) == 0 {
						rebuild(t, s.Cluster())
					}
				})
				jobs := job.CloneAll(trace)
				sims := []*sim.Simulator{sim.New(three, policy)}
				if c.reuse {
					sims[0].SetMaxEvents(40 + int(seed))
					sims = append(sims, sim.New(three, policy))
				}
				for n, s := range sims {
					if err := s.Load(jobs); err != nil {
						t.Fatal(err)
					}
					if err := s.Run(); err != nil && n == len(sims)-1 {
						t.Fatal(err)
					}
				}
			}
			// The test must not pass by never reusing a walk, or always.
			t.Logf("%d reservation rounds, %d reused the last walk", rounds, reused)
			if reused < 200 || reused == rounds {
				t.Fatalf("%d of %d reservation rounds reused the last walk", reused, rounds)
			}
		})
	}
}

// rebuild resets cl and allocates its running set again as it was: the
// same state under a new version.
func rebuild(t *testing.T, cl *cluster.Cluster) {
	var held []cluster.Alloc
	for _, a := range cl.Running() {
		held = append(held, cluster.Alloc{JobID: a.JobID, Demand: slices.Clone(a.Demand), Start: a.Start, EstEnd: a.EstEnd})
	}
	cl.Reset()
	for _, a := range held {
		if err := cl.Allocate(a.JobID, a.Demand, a.Start, a.EstEnd); err != nil {
			t.Fatal(err)
		}
	}
}
