package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
)

func cfg2() cluster.Config {
	return cluster.Config{Name: "t", Resources: []string{"nodes", "bb"}, Capacities: []int{10, 8}}
}

// greedyFCFS starts queued jobs in arrival order while they fit — the
// minimal policy for exercising the simulator itself.
func greedyFCFS() Policy {
	return PolicyFunc(func(s *Simulator) {
		for {
			started := false
			for _, j := range s.Queue() {
				if s.Cluster().CanFit(j.Demand) {
					if err := s.StartJob(j); err != nil {
						panic(err)
					}
					started = true
					break
				}
				break // strict FCFS: head blocks the rest
			}
			if !started {
				return
			}
		}
	})
}

func mk(id int, submit, runtime float64, nodes, bb int) *job.Job {
	return &job.Job{ID: id, Submit: submit, Runtime: runtime, Walltime: runtime, Demand: []int{nodes, bb}}
}

func TestSingleJobLifecycle(t *testing.T) {
	s := New(cfg2(), greedyFCFS())
	j := mk(1, 10, 100, 4, 2)
	if err := s.Load([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if j.State != job.Finished {
		t.Fatalf("state = %v", j.State)
	}
	if j.Start != 10 || j.End != 110 {
		t.Fatalf("start/end = %v/%v", j.Start, j.End)
	}
	if s.Cluster().NumRunning() != 0 {
		t.Fatal("resources leaked")
	}
	if len(s.Finished()) != 1 {
		t.Fatal("finished count wrong")
	}
}

func TestQueuedBehindBigJob(t *testing.T) {
	s := New(cfg2(), greedyFCFS())
	jobs := []*job.Job{
		mk(1, 0, 100, 10, 0), // fills the machine
		mk(2, 5, 50, 10, 0),  // must wait until t=100
	}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Start != 100 {
		t.Fatalf("job 2 start = %v, want 100", jobs[1].Start)
	}
	if w := jobs[1].Wait(); w != 95 {
		t.Fatalf("job 2 wait = %v, want 95", w)
	}
}

func TestFinishAppliesBeforeSubmitAtSameInstant(t *testing.T) {
	// Job 1 ends exactly when job 2 arrives; job 2 must see the free nodes.
	s := New(cfg2(), greedyFCFS())
	jobs := []*job.Job{
		mk(1, 0, 100, 10, 0),
		mk(2, 100, 10, 10, 0),
	}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if jobs[2-1].Start != 100 {
		t.Fatalf("job 2 start = %v, want 100", jobs[1].Start)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// One job using half the nodes for the whole window -> 50% utilization.
	s := New(cfg2(), greedyFCFS())
	jobs := []*job.Job{
		mk(1, 0, 100, 5, 0),
		mk(2, 0, 100, 5, 4),
	}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if u := s.Utilization(0); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("node util = %v, want 1.0", u)
	}
	if u := s.Utilization(1); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("bb util = %v, want 0.5", u)
	}
	if rs := s.ResourceSeconds(0); math.Abs(rs-1000) > 1e-9 {
		t.Fatalf("node-seconds = %v, want 1000", rs)
	}
}

func TestUtilizationWindowStartsAtFirstEvent(t *testing.T) {
	// Trace starting at t=1000 must not dilute utilization with [0,1000).
	s := New(cfg2(), greedyFCFS())
	if err := s.Load([]*job.Job{mk(1, 1000, 100, 10, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if u := s.Utilization(0); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("util = %v, want 1.0", u)
	}
	start, end := s.ElapsedWindow()
	if start != 1000 || end != 1100 {
		t.Fatalf("window = [%v,%v]", start, end)
	}
}

func TestLoadRejectsDuplicatesAndInvalid(t *testing.T) {
	s := New(cfg2(), greedyFCFS())
	if err := s.Load([]*job.Job{mk(1, 0, 10, 4, 0), mk(1, 5, 10, 4, 0)}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	s = New(cfg2(), greedyFCFS())
	if err := s.Load([]*job.Job{mk(2, 0, 10, 99, 0)}); err == nil {
		t.Fatal("over-capacity job accepted")
	}
}

func TestStartJobErrors(t *testing.T) {
	s := New(cfg2(), PolicyFunc(func(*Simulator) {}))
	j := mk(1, 0, 10, 4, 0)
	if err := s.Load([]*job.Job{j}); err != nil {
		t.Fatal(err)
	}
	// Starting a job twice must fail on the second call.
	_, _ = s.Step()
	if err := s.StartJob(j); err != nil {
		t.Fatal(err)
	}
	if err := s.StartJob(j); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestRunReportsStarvation(t *testing.T) {
	// A policy that never starts anything leaves the queue non-empty.
	s := New(cfg2(), PolicyFunc(func(*Simulator) {}))
	if err := s.Load([]*job.Job{mk(1, 0, 10, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("starved run must error")
	}
}

func TestEventOrderingWithinInstant(t *testing.T) {
	// Two finishes and one submit at the same time: both finishes must apply
	// before the policy sees the queue.
	s := New(cfg2(), greedyFCFS())
	jobs := []*job.Job{
		mk(1, 0, 100, 5, 0),
		mk(2, 0, 100, 5, 0),
		mk(3, 100, 10, 10, 0),
	}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if jobs[2].Start != 100 {
		t.Fatalf("job 3 start = %v, want 100", jobs[2].Start)
	}
}
