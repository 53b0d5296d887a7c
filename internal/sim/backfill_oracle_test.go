package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

func cfg() cluster.Config {
	return cluster.Config{Name: "t", Resources: []string{"nodes", "bb"}, Capacities: []int{16, 8}}
}

// snapshotBackfill is the retired backfill: copy the queue, then test every
// copied candidate against CanFit, the shadow time and the spare capacity.
// It returns the IDs it started, in order, and the spare vector it ended
// with — the oracle for the simulator's pass, whose scan runs over the demand
// keys, ends when Free(0) is zero and begins behind the jobs the previous
// scan refused.
func snapshotBackfill(s *sim.Simulator, reserved *job.Job) (started, extra []int) {
	cl, now := s.Cluster(), s.Now()
	shadow, extra := sched.Shadow(cl, reserved.Demand, now)
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

// reserving wraps p in a picker that sets *reserved to the job a round
// reserves: its last pick, clamped as the round clamps it, when that pick
// does not fit. The caller clears *reserved before each round.
func reserving(p sim.Picker, reserved **job.Job) sim.Picker {
	return sim.PickerFunc(func(ctx *sim.PickContext) int {
		k := p.Pick(ctx)
		if k < 0 || k >= len(ctx.Window) {
			k = 0
		}
		if j := ctx.Window[k]; !ctx.Cluster.CanFit(j.Demand) {
			*reserved = j
		}
		return k
	})
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
	// jump wraps the policy in one that, in every other round, when a job
	// finished, starts a waiting job that fits from inside the prefix the
	// last scan refused, through StartJob, before the policy runs.
	jump bool
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
// one backfills with the simulator's pass, the other with the snapshot oracle.
// At every round that ends in a reservation they must have started the same
// jobs in the same order and be left with the same spare vector and queue.
func TestInPlaceBackfillMatchesSnapshotScan(t *testing.T) {
	two := cfg()
	three := cluster.Config{Name: "t3", Resources: []string{"nodes", "bb", "power_kw"}, Capacities: []int{16, 8, 40}}
	// A lane of the demand key holds 2^20-1 here: the third resource clamps.
	wide := cluster.Config{Name: "wide", Resources: []string{"nodes", "bb", "bytes"}, Capacities: []int{16, 8, 3 << 20}}
	for name, c := range map[string]oracleCase{
		"estimates hold":          {sys: two, walltimeOver: []float64{1, 2, 3}},
		"overdue":                 {sys: two, walltimeOver: []float64{0.4, 1, 2}},
		"three resources":         {sys: three, walltimeOver: []float64{0.5, 1, 3}},
		"clamped lane":            {sys: wide, walltimeOver: []float64{1, 2}},
		"intruding hook":          {sys: two, walltimeOver: []float64{0.5, 1, 2}, intrude: true},
		"refused job jumps ahead": {sys: two, walltimeOver: []float64{0.5, 1, 2}, jump: true},
		"policy used twice":       {sys: three, walltimeOver: []float64{1, 2}, reuse: true},
	} {
		t.Run(name, func(t *testing.T) {
			var sum tally
			for seed := int64(1); seed <= 40; seed++ {
				n := c.run(t, seed)
				sum.multi, sum.carried, sum.jumped = sum.multi+n.multi, sum.carried+n.carried, sum.jumped+n.jumped
			}
			// The test must not pass by never exercising what it is about.
			t.Logf("%d rounds backfilled two or more jobs, %d scans were shortened, %d after a jump", sum.multi, sum.carried, sum.jumped)
			if sum.multi < 100 {
				t.Errorf("only %d rounds backfilled two or more jobs", sum.multi)
			}
			if sum.carried < 400 {
				t.Errorf("only %d scans began behind jobs the previous one refused", sum.carried)
			}
			if c.jump && sum.jumped < 100 {
				t.Errorf("only %d scans began behind the refused jobs left after a jump", sum.jumped)
			}
		})
	}
}

// tally is what one differential run exercised, for the test's floors.
type tally struct {
	multi   int // rounds that backfilled two or more jobs
	carried int // scans that began behind jobs the previous scan refused
	jumped  int // of those, scans in a round the jump hook started a refused job
}

// run replays one seed's trace on both sides and fails on the first line on
// which they differ. It returns what the in-place side exercised.
func (c oracleCase) run(t *testing.T, seed int64) (n tally) {
	trace := c.trace(rand.New(rand.NewSource(seed)))
	// One log line per reservation round: what started, extra, queue.
	var logs [2][]string
	jumped := map[int]int{} // the job the in-place side's jump hook started, by round
	for side := range logs {
		pick := rand.New(rand.NewSource(seed))
		var reserved *job.Job
		wp := sim.NewWindowPolicy(reserving(sim.PickerFunc(func(ctx *sim.PickContext) int { return pick.Intn(len(ctx.Window)) }), &reserved), 5)
		wp.Backfill = false // the test runs the backfill itself, to see its starts
		record := func(s *sim.Simulator, started, extra []int) {
			if side == 0 && len(started) >= 2 {
				n.multi++
			}
			q := make([]int, len(s.Queue()))
			for i, j := range s.Queue() {
				q[i] = j.ID
			}
			logs[side] = append(logs[side], fmt.Sprintf("t=%v reserved=%d started=%v extra=%v queue=%v",
				s.Now(), reserved.ID, started, extra, q))
		}
		policy := sim.PolicyFunc(func(s *sim.Simulator) {
			reserved = nil
			wp.OnSchedule(s)
			if reserved == nil {
				return
			}
			if side == 1 {
				started, extra := snapshotBackfill(s, reserved)
				record(s, started, extra)
				return
			}
			before := slices.Clone(s.Queue())
			sim.Backfill(s, reserved)
			var started []int
			for _, j := range before { // the scan starts jobs in queue order
				if j.State == job.Running {
					started = append(started, j.ID)
				}
			}
			_, extra, _, _ := s.Held()
			record(s, started, extra)
		})
		start := func(s *sim.Simulator, j *job.Job, by string) {
			if err := s.StartJob(j); err != nil {
				t.Fatal(err)
			}
			logs[side] = append(logs[side], fmt.Sprintf("t=%v %s started %d", s.Now(), by, j.ID))
		}
		jobs := job.CloneAll(trace)
		newSim := func() *sim.Simulator {
			switch {
			case c.intrude:
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
					if short != nil {
						start(s, short, "hook")
					}
				}))
			case c.jump:
				round, done := 0, 0
				return sim.New(c.sys, sim.PolicyFunc(func(s *sim.Simulator) {
					round++
					finished := len(s.Finished()) > done
					done = len(s.Finished())
					if !finished || round%2 != 0 {
						policy(s)
						return
					}
					j, carried := jumper(s, side, jumped, round), s.Carried()
					if j != nil {
						start(s, j, "jump")
					}
					policy(s)
					if side == 0 && j != nil && s.Carried() > carried {
						n.jumped++
					}
				}))
			}
			return sim.New(c.sys, policy)
		}
		sims := []*sim.Simulator{newSim()}
		if c.reuse {
			sims[0].SetMaxEvents(40 + int(seed))
			sims = append(sims, newSim())
		}
		for k, s := range sims {
			if err := s.Load(jobs); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil && k == len(sims)-1 {
				t.Fatal(err)
			}
			for _, j := range s.Finished() {
				logs[side] = append(logs[side], fmt.Sprintf("job %d ran %v..%v", j.ID, j.Start, j.End))
			}
			if side == 0 {
				n.carried += s.Carried()
			}
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
	return n
}

// jumper picks the job the jump hook starts at a round. The in-place side
// takes, from the prefix its last scan refused, the waiting job that fits
// with the largest first demand — freed units it claims back, so the next
// scan often still begins behind the prefix — and notes it; the snapshot
// side, which keeps no prefix, starts the job noted for the same round.
func jumper(s *sim.Simulator, side int, jumped map[int]int, round int) *job.Job {
	if side == 1 {
		if id, ok := jumped[round]; ok {
			for _, j := range s.Queue() {
				if j.ID == id && s.Cluster().CanFit(j.Demand) {
					return j
				}
			}
		}
		return nil
	}
	_, _, _, refused := s.Held()
	var pick *job.Job
	for _, j := range s.Queue()[:refused] {
		if s.Cluster().CanFit(j.Demand) && (pick == nil || j.Demand[0] > pick.Demand[0]) {
			pick = j
		}
	}
	if pick != nil {
		jumped[round] = pick.ID
	}
	return pick
}

// The reservation's walk is reused while the reserved job and the cluster's
// version are the ones it ran for. At every round that reserves, the shadow
// and extra the pass plans with must be what a fresh sched.Shadow gives, bit
// for bit: over random traces, with one policy driving two simulators, and
// with the cluster Reset and rebuilt between rounds.
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
				var r *job.Job // the round's reservation
				wp := sim.NewWindowPolicy(reserving(sim.PickerFunc(func(ctx *sim.PickContext) int { return rng.Intn(len(ctx.Window)) }), &r), 5)
				wp.Backfill = false // the test backfills, after it has taken a fresh walk
				policy := sim.PolicyFunc(func(s *sim.Simulator) {
					r = nil
					wp.OnSchedule(s)
					if r != nil {
						cl := s.Cluster()
						walked, version, _ := s.Walk()
						if walked == r && version == cl.Version() {
							reused++
						}
						shadow, extra := sched.Shadow(cl, r.Demand, s.Now())
						sim.Backfill(s, r)
						_, _, planned, _ := s.Held()
						if _, _, walkExtra := s.Walk(); planned != shadow || !slices.Equal(walkExtra, extra) {
							t.Fatalf("seed %d, t=%v, job %d reserved: planned shadow %v extra %v, a fresh walk gives %v %v",
								seed, s.Now(), r.ID, planned, walkExtra, shadow, extra)
						}
						rounds++
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
