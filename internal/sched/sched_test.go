package sched

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

func cfg() cluster.Config {
	return cluster.Config{Name: "t", Resources: []string{"nodes", "bb"}, Capacities: []int{16, 8}}
}

func mk(id int, submit, runtime float64, nodes, bb int) *job.Job {
	return &job.Job{ID: id, Submit: submit, Runtime: runtime, Walltime: runtime, Demand: []int{nodes, bb}}
}

func runFCFS(t *testing.T, jobs []*job.Job, backfill bool) *sim.Simulator {
	t.Helper()
	p := NewWindowPolicy(FCFS{}, 10)
	p.Backfill = backfill
	s := sim.New(cfg(), p)
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFCFSOrder(t *testing.T) {
	jobs := []*job.Job{
		mk(1, 0, 100, 8, 0),
		mk(2, 1, 100, 8, 0),
		mk(3, 2, 100, 8, 0),
	}
	runFCFS(t, jobs, true)
	if jobs[0].Start != 0 || jobs[1].Start != 1 {
		t.Fatalf("starts: %v %v", jobs[0].Start, jobs[1].Start)
	}
	// Job 3 needs 8 nodes; 16 are busy until t=100.
	if jobs[2].Start != 100 {
		t.Fatalf("job 3 start = %v, want 100", jobs[2].Start)
	}
}

func TestBackfillShortJobSkipsAhead(t *testing.T) {
	// Head job 2 is blocked until t=100; job 3 is short and small enough to
	// finish before the shadow time, so EASY lets it start immediately.
	jobs := []*job.Job{
		mk(1, 0, 100, 12, 0),
		mk(2, 1, 50, 12, 0), // reserved; shadow = 100
		mk(3, 2, 50, 4, 0),  // ends at 52 <= 100: backfills
	}
	runFCFS(t, jobs, true)
	if jobs[2].Start != 2 {
		t.Fatalf("backfill start = %v, want 2", jobs[2].Start)
	}
	if jobs[1].Start != 100 {
		t.Fatalf("reserved job start = %v, want 100", jobs[1].Start)
	}
}

func TestBackfillNeverDelaysReservedJob(t *testing.T) {
	// Job 3 runs for 200s and would overlap the shadow time while using the
	// nodes the reserved job needs; EASY must hold it back.
	jobs := []*job.Job{
		mk(1, 0, 100, 12, 0),
		mk(2, 1, 50, 12, 0), // reserved; shadow = 100, extra = 16-12=4 nodes
		mk(3, 2, 200, 4, 0), // fits extra: may start (4 <= 4)
		mk(4, 3, 200, 2, 0), // extra exhausted: must NOT start before 51
	}
	runFCFS(t, jobs, true)
	if jobs[1].Start != 100 {
		t.Fatalf("reserved start = %v, want 100 (delayed by backfill?)", jobs[1].Start)
	}
	if jobs[2].Start != 2 {
		t.Fatalf("job 3 should backfill into extra capacity, start = %v", jobs[2].Start)
	}
	if jobs[3].Start < 100 {
		t.Fatalf("job 4 backfilled illegally at %v", jobs[3].Start)
	}
}

func TestNoBackfillLeavesHole(t *testing.T) {
	jobs := []*job.Job{
		mk(1, 0, 100, 12, 0),
		mk(2, 1, 50, 12, 0),
		mk(3, 2, 50, 4, 0),
	}
	runFCFS(t, jobs, false)
	if jobs[2].Start == 2 {
		t.Fatal("job 3 started early despite backfill disabled")
	}
}

func TestMultiResourceBackfillRespectsSecondResource(t *testing.T) {
	// Candidate fits the node extra but would steal burst buffer needed by
	// the reserved job at shadow time.
	jobs := []*job.Job{
		mk(1, 0, 100, 12, 6),
		mk(2, 1, 50, 4, 8),  // reserved: needs all BB; shadow=100; extra BB = 8-8 = 0
		mk(3, 2, 200, 2, 1), // long, needs 1 BB > extra 0: must wait
	}
	runFCFS(t, jobs, true)
	if jobs[1].Start != 100 {
		t.Fatalf("reserved start = %v, want 100", jobs[1].Start)
	}
	if jobs[2].Start < 51 {
		t.Fatalf("job 3 must not backfill, started %v", jobs[2].Start)
	}
}

func TestStarvationPrevention(t *testing.T) {
	// A full-machine job arrives at t=1 followed by a stream of small jobs.
	// Without reservation it starves; with it, it must start by the time the
	// initial allocation drains.
	jobs := []*job.Job{mk(1, 0, 50, 8, 0), mk(2, 1, 100, 16, 8)}
	id := 3
	for tt := 2.0; tt < 200; tt += 5 {
		jobs = append(jobs, mk(id, tt, 30, 2, 1))
		id++
	}
	runFCFS(t, jobs, true)
	big := jobs[1]
	if big.Start != 50 {
		t.Fatalf("big job starved: start = %v, want 50", big.Start)
	}
}

func TestPickerOutOfRangeFallsBackToHead(t *testing.T) {
	bad := PickerFunc(func(ctx *PickContext) int { return 99 })
	p := NewWindowPolicy(bad, 5)
	s := sim.New(cfg(), p)
	jobs := []*job.Job{mk(1, 0, 10, 4, 0)}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if jobs[0].State != job.Finished {
		t.Fatal("job not run under fallback")
	}
}

func TestWindowBoundsSelection(t *testing.T) {
	// A picker that always chooses the last window slot must never see more
	// than W jobs.
	maxSeen := 0
	p := NewWindowPolicy(PickerFunc(func(ctx *PickContext) int {
		if len(ctx.Window) > maxSeen {
			maxSeen = len(ctx.Window)
		}
		return len(ctx.Window) - 1
	}), 3)
	s := sim.New(cfg(), p)
	var jobs []*job.Job
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, mk(i, 0, 10, 2, 0))
	}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxSeen > 3 {
		t.Fatalf("window exposed %d jobs, max 3", maxSeen)
	}
}

// Property-style test: for random workloads, (a) every job finishes,
// (b) the reserved job at any decision instant is never delayed past the
// shadow time computed at reservation (walltime==runtime in this test, so
// shadow times are exact upper bounds).
func TestEASYInvariantRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var jobs []*job.Job
		clk := 0.0
		for i := 1; i <= 60; i++ {
			clk += float64(rng.Intn(30))
			jobs = append(jobs, mk(i, clk, float64(rng.Intn(300)+1), rng.Intn(16)+1, rng.Intn(9)))
		}
		reservations := map[int]float64{} // job ID -> earliest shadow recorded
		s := sim.New(cfg(), NewWindowPolicy(PickerFunc(func(ctx *PickContext) int {
			if j := ctx.Window[0]; !ctx.Cluster.CanFit(j.Demand) { // the round reserves FCFS's pick
				sh, _ := Shadow(ctx.Cluster, j.Demand, ctx.Now)
				if _, seen := reservations[j.ID]; !seen {
					reservations[j.ID] = sh
				} else if sh < reservations[j.ID] {
					reservations[j.ID] = sh // shadow can only improve as jobs end early
				}
			}
			return 0
		}), 10))
		if err := s.Load(jobs); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, j := range jobs {
			if j.State != job.Finished {
				t.Fatalf("seed %d: job %d never finished", seed, j.ID)
			}
		}
		for id, shadow := range reservations {
			for _, j := range jobs {
				if j.ID == id && j.Start > shadow+1e-9 {
					t.Fatalf("seed %d: reserved job %d started %v after shadow %v", seed, id, j.Start, shadow)
				}
			}
		}
	}
}

func TestBackfillImprovesUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 80; i++ {
		clk += float64(rng.Intn(20))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(400)+10), rng.Intn(14)+1, rng.Intn(8)))
	}
	withBF := runFCFS(t, job.CloneAll(jobs), true)
	withoutBF := runFCFS(t, job.CloneAll(jobs), false)
	if withBF.Utilization(0) < withoutBF.Utilization(0)-1e-9 {
		t.Fatalf("backfill reduced node utilization: %v vs %v",
			withBF.Utilization(0), withoutBF.Utilization(0))
	}
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

// Startable asks the whole queue, not the window: a job of 12 nodes and 2
// burst-buffer units runs from t=0, and at t=1 a queue arrives, on 4 nodes
// and 6 units free, under a window of two. The round's first pick there is
// startable exactly when some job of the queue fits, behind the window or
// not. A context no round built reports true.
func TestStartable(t *testing.T) {
	big := func(id int) *job.Job { return mk(id, 1, 10, 8, 0) }
	wide := func(id int) *job.Job { return mk(id, 1, 10, 2, 7) }
	small := func(id int) *job.Job { return mk(id, 1, 10, 4, 6) }
	for _, c := range []struct {
		name  string
		queue []*job.Job
		want  bool
	}{
		{"nothing fits", []*job.Job{big(1), wide(2), big(3)}, false},
		{"only a job behind the window fits", []*job.Job{big(1), wide(2), small(3)}, true},
		{"the head fits", []*job.Job{small(1), big(2)}, true},
	} {
		var got []bool // Startable at each pick at t=1
		p := NewWindowPolicy(PickerFunc(func(ctx *PickContext) int {
			if ctx.Now == 1 {
				got = append(got, ctx.Startable())
			}
			return 0
		}), 2)
		s := sim.New(cfg(), p)
		if err := s.Load(append([]*job.Job{mk(100, 0, 500, 12, 2)}, c.queue...)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0] != c.want {
			t.Errorf("%s: Startable() at the round's picks = %v, want %v first", c.name, got, c.want)
		}
	}
	cl := cluster.New(cfg())
	if err := cl.Allocate(100, []int{12, 2}, 0, 500); err != nil {
		t.Fatal(err)
	}
	queue := []*job.Job{big(1), wide(2), big(3)}
	ctx := &PickContext{Now: 1, Window: queue[:2], Queue: queue, Cluster: cl, Usage: cl.Usage()}
	if !ctx.Startable() {
		t.Error("a context no round built, where nothing fits: Startable() = false, want true")
	}
}
