package sched

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

func pickCtx(cl *cluster.Cluster, window ...*job.Job) *PickContext {
	return &PickContext{Now: 0, Window: window, Queue: window, Cluster: cl, Usage: cl.Usage()}
}

func TestTetrisPrefersAlignedJob(t *testing.T) {
	cl := cluster.New(cfg()) // 16 nodes, 8 bb
	// Consume most BB: free = (12, 1). A node-heavy job aligns better than
	// a BB-heavy one.
	if err := cl.Allocate(99, []int{4, 7}, 0, 100); err != nil {
		t.Fatal(err)
	}
	window := []*job.Job{
		mk(1, 0, 100, 2, 1),  // bb-heavy relative to free
		mk(2, 0, 100, 10, 0), // node-heavy: aligned with free vector
	}
	if got := (Tetris{}).Pick(pickCtx(cl, window...)); got != 1 {
		t.Fatalf("Tetris picked %d, want 1", got)
	}
}

func TestTetrisFallsBackWhenNothingFits(t *testing.T) {
	cl := cluster.New(cfg())
	if err := cl.Allocate(99, []int{16, 8}, 0, 100); err != nil {
		t.Fatal(err)
	}
	window := []*job.Job{mk(1, 0, 100, 2, 1), mk(2, 0, 100, 1, 0)}
	if got := (Tetris{}).Pick(pickCtx(cl, window...)); got != 0 {
		t.Fatalf("Tetris fallback = %d, want 0 (head)", got)
	}
}

func TestSJFPicksShortestFitting(t *testing.T) {
	cl := cluster.New(cfg())
	window := []*job.Job{
		mk(1, 0, 500, 4, 0),
		mk(2, 0, 50, 4, 0),
		mk(3, 0, 200, 4, 0),
	}
	if got := (SJF{}).Pick(pickCtx(cl, window...)); got != 1 {
		t.Fatalf("SJF picked %d, want 1", got)
	}
	// The shortest job does not fit: next shortest fitting wins.
	if err := cl.Allocate(99, []int{13, 0}, 0, 1000); err != nil {
		t.Fatal(err)
	}
	window[1].Demand = []int{4, 0} // still doesn't fit (free 3)
	window[2].Demand = []int{3, 0}
	window[0].Demand = []int{3, 0}
	if got := (SJF{}).Pick(pickCtx(cl, window...)); got != 2 {
		t.Fatalf("SJF picked %d, want 2 (shortest fitting)", got)
	}
}

func TestLargestFirstPicksBiggest(t *testing.T) {
	cl := cluster.New(cfg())
	window := []*job.Job{
		mk(1, 0, 100, 4, 0),
		mk(2, 0, 100, 12, 0),
		mk(3, 0, 100, 8, 0),
	}
	if got := (LargestFirst{}).Pick(pickCtx(cl, window...)); got != 1 {
		t.Fatalf("LargestFirst picked %d, want 1", got)
	}
}

// All three heuristics must complete random workloads without starvation
// (the window+reservation framework guarantees progress regardless of the
// picker).
func TestBaselinePickersCompleteWorkloads(t *testing.T) {
	pickers := map[string]Picker{"tetris": Tetris{}, "sjf": SJF{}, "largest": LargestFirst{}, "pareto": Pareto{}}
	for name, p := range pickers {
		rng := rand.New(rand.NewSource(11))
		var jobs []*job.Job
		clk := 0.0
		for i := 1; i <= 80; i++ {
			clk += float64(rng.Intn(25))
			jobs = append(jobs, mk(i, clk, float64(rng.Intn(300)+1), rng.Intn(16)+1, rng.Intn(9)))
		}
		s := sim.New(cfg(), NewWindowPolicy(p, 10))
		if err := s.Load(jobs); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, j := range jobs {
			if j.State != job.Finished {
				t.Fatalf("%s starved job %d", name, j.ID)
			}
		}
	}
}

func TestSJFImprovesSlowdownOverFCFS(t *testing.T) {
	// A filler occupies the machine while a long job and many short jobs
	// queue behind it; SJF should cut average slowdown relative to FCFS
	// (the classic result).
	var jobs []*job.Job
	jobs = append(jobs, mk(1, 0, 100, 16, 0))  // filler: whole machine
	jobs = append(jobs, mk(2, 1, 1000, 10, 0)) // long job at the queue head
	for i := 3; i <= 30; i++ {
		jobs = append(jobs, mk(i, float64(i), 20, 10, 0))
	}
	slowdown := func(p Picker) float64 {
		js := job.CloneAll(jobs)
		s := sim.New(cfg(), NewWindowPolicy(p, 10))
		if err := s.Load(js); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, j := range js {
			total += j.Slowdown()
		}
		return total / float64(len(js))
	}
	if sjf, fcfs := slowdown(SJF{}), slowdown(FCFS{}); sjf >= fcfs {
		t.Fatalf("SJF slowdown %v >= FCFS %v", sjf, fcfs)
	}
}
