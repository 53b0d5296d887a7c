package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

func sys() cluster.Config {
	return cluster.Config{Name: "r", Resources: []string{"nodes", "bb"}, Capacities: []int{16, 8}}
}

func mk(id int, submit, wall float64, nodes, bb int) *job.Job {
	return &job.Job{ID: id, Submit: submit, Runtime: wall, Walltime: wall, Demand: []int{nodes, bb}}
}

func tinyConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Window = 4
	cfg.Hidden = []int{16}
	cfg.Seed = seed
	return cfg
}

func ctxWith(cl *cluster.Cluster, now float64, queue []*job.Job) *sched.PickContext {
	w := queue
	if len(w) > 4 {
		w = w[:4]
	}
	return &sched.PickContext{Now: now, Window: w, Queue: queue, Cluster: cl, Usage: cl.Usage()}
}

func TestDefaultWeightsUniform(t *testing.T) {
	s := New(sys(), tinyConfig(1))
	if len(s.cfg.Weights) != 2 || s.cfg.Weights[0] != 0.5 || s.cfg.Weights[1] != 0.5 {
		t.Fatalf("weights = %v, want paper's fixed 0.5/0.5", s.cfg.Weights)
	}
}

func TestRewardComputation(t *testing.T) {
	s := New(sys(), tinyConfig(1))
	cl := cluster.New(sys())
	if err := cl.Allocate(9, []int{8, 0}, 0, 100); err != nil {
		t.Fatal(err)
	}
	queue := []*job.Job{mk(1, 0, 100, 4, 4)}
	ctx := ctxWith(cl, 0, queue)
	// Fits: nodes (8+4)/16 = 0.75, bb (0+4)/8 = 0.5 -> 0.5*0.75+0.5*0.5 = 0.625.
	if got := s.reward(ctx, 0); math.Abs(got-0.625) > 1e-12 {
		t.Fatalf("reward = %v, want 0.625", got)
	}
	// Non-fitting job: reward is current utilization only.
	queue = []*job.Job{mk(2, 0, 100, 16, 0)}
	ctx = ctxWith(cl, 0, queue)
	if got := s.reward(ctx, 0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("non-fitting reward = %v, want 0.25", got)
	}
}

func TestPickWithinWindow(t *testing.T) {
	s := New(sys(), tinyConfig(2))
	cl := cluster.New(sys())
	queue := []*job.Job{mk(1, 0, 10, 1, 0), mk(2, 0, 10, 2, 1)}
	actor := s.Actor()
	actor.Reset(2)
	for trial := 0; trial < 20; trial++ {
		if got := actor.Pick(ctxWith(cl, 0, queue)); got < 0 || got >= 2 {
			t.Fatalf("pick %d out of range", got)
		}
	}
}

// An evaluator's Pick — encoding, network pass and
// sampling — allocates nothing once its buffers are warm.
func TestPickNetworkZeroAlloc(t *testing.T) {
	s := New(sys(), tinyConfig(3))
	ctx := ctxWith(cluster.New(sys()), 0, []*job.Job{mk(1, 0, 10, 1, 0), mk(2, 0, 10, 2, 1)})
	actor := s.Evaluator(3)
	actor.Pick(ctx) // warm the layer and encoding buffers
	if avg := testing.AllocsPerRun(100, func() { actor.Pick(ctx) }); avg != 0 {
		t.Fatalf("%v allocations per evaluator pick, want 0", avg)
	}
}

func TestSamplePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probs := []float64{0.1, 0.9, 0.0, 0.0}
	counts := [2]int{}
	for i := 0; i < 2000; i++ {
		k := samplePrefix(probs, 2, rng)
		if k < 0 || k > 1 {
			t.Fatalf("sample out of prefix: %d", k)
		}
		counts[k]++
	}
	if counts[1] < 1500 {
		t.Fatalf("sampling ignores probabilities: %v", counts)
	}
	// Degenerate all-zero prefix falls back to uniform.
	if k := samplePrefix([]float64{0, 0, 1}, 2, rng); k < 0 || k > 1 {
		t.Fatalf("degenerate sample = %d", k)
	}
}

func TestPrefixNLLGradMatchesFiniteDifference(t *testing.T) {
	probs := []float64{0.2, 0.5, 0.3, 0.0}
	valid, action, adv := 3, 1, 1.7
	loss, grad := prefixNLLGrad(probs, action, valid, adv)
	wantLoss := -adv * math.Log(0.5/1.0)
	if math.Abs(loss-wantLoss) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, wantLoss)
	}
	eps := 1e-7
	for i := 0; i < valid; i++ {
		p2 := append([]float64(nil), probs...)
		p2[i] += eps
		lp, _ := prefixNLLGrad(p2, action, valid, adv)
		num := (lp - loss) / eps
		if math.Abs(num-grad[i]) > 1e-4 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad[i], num)
		}
	}
	if grad[3] != 0 {
		t.Fatal("gradient leaked past the valid prefix")
	}
}

func TestIngestEmptyTrajectory(t *testing.T) {
	s := New(sys(), tinyConfig(3))
	before := snapshot(s)
	if got := s.IngestTrajectory(s.Actor().TakeTrajectory()); got != 0 {
		t.Fatalf("empty episode loss = %v", got)
	}
	if snapshot(s) != before {
		t.Fatal("an empty episode moved the policy")
	}
}

func TestEndToEndSimulationCompletes(t *testing.T) {
	s := New(sys(), tinyConfig(4))
	rng := rand.New(rand.NewSource(5))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 40; i++ {
		clk += float64(rng.Intn(50))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(400)+10), rng.Intn(16)+1, rng.Intn(9)))
	}
	actor := s.Evaluator(4)
	simu := sim.New(sys(), actor.Policy())
	if err := simu.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := simu.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State != job.Finished {
			t.Fatalf("job %d unfinished", j.ID)
		}
	}
}

func TestTrainingEpisodeUpdatesPolicy(t *testing.T) {
	s := New(sys(), tinyConfig(6))
	rng := rand.New(rand.NewSource(7))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 25; i++ {
		clk += float64(rng.Intn(40))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(200)+10), rng.Intn(12)+1, rng.Intn(7)))
	}
	actor := s.Actor()
	actor.Reset(6)
	simu := sim.New(sys(), actor.Policy())
	if err := simu.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := simu.Run(); err != nil {
		t.Fatal(err)
	}
	tr := actor.TakeTrajectory()
	if len(tr.steps) == 0 {
		t.Fatal("the actor recorded no steps")
	}
	if len(actor.TakeTrajectory().steps) != 0 {
		t.Fatal("TakeTrajectory did not clear the actor")
	}
	before := snapshot(s)
	if loss := s.IngestTrajectory(tr); math.IsNaN(loss) {
		t.Fatal("NaN policy loss")
	}
	after := snapshot(s)
	if before == after {
		t.Fatal("update did not change the policy parameters")
	}
}

func snapshot(s *Scheduler) float64 {
	sum := 0.0
	for _, p := range s.net.Params() {
		for _, v := range p.Value {
			sum += v
		}
	}
	return sum
}

// A bandit-style check: two jobs, one tiny and one huge; rewards favour
// picking the job that lifts utilization. After repeated short episodes the
// policy probability mass must shift toward the fitting, high-utilization
// action, so that an evaluating actor samples it nearly always.
func TestPolicyLearnsUtilizationBandit(t *testing.T) {
	cfg := tinyConfig(8)
	cfg.LR = 5e-3
	s := New(sys(), cfg)
	cl := cluster.New(sys())
	queue := []*job.Job{
		mk(1, 0, 100, 1, 0),  // low reward
		mk(2, 0, 100, 14, 7), // high reward
	}
	actor := s.Actor()
	for ep := 0; ep < 300; ep++ {
		actor.Reset(int64(ep))
		// Multi-pull episodes: with a mean baseline, a single-step episode
		// has zero advantage, so each episode makes several decisions.
		for pull := 0; pull < 6; pull++ {
			actor.Pick(ctxWith(cl, 0, queue))
		}
		s.IngestTrajectory(actor.TakeTrajectory())
	}
	actor = s.Evaluator(1000)
	counts := [2]int{}
	for i := 0; i < 50; i++ {
		counts[actor.Pick(ctxWith(cl, 0, queue))]++
	}
	if counts[1] < 40 {
		t.Fatalf("policy failed to prefer high-reward action: %v", counts)
	}
}

// An evaluator, the unrecorded actor, samples what a recording one Reset at
// its seed samples and keeps no trajectory.
func TestUnrecordedActorSamplesTheSameAndKeepsNothing(t *testing.T) {
	s := New(sys(), tinyConfig(4))
	cl := cluster.New(sys())
	if err := cl.Allocate(9, []int{6, 2}, 0, 300); err != nil {
		t.Fatal(err)
	}
	queue := []*job.Job{mk(1, 0, 10, 1, 0), mk(2, 0, 10, 2, 1), mk(3, 4, 90, 12, 4), mk(4, 5, 30, 3, 3), mk(5, 6, 20, 1, 1)}
	ctxs := []*sched.PickContext{ctxWith(cl, 10, queue), ctxWith(cl, 20, queue[2:]), ctxWith(cl, 30, queue[4:])}
	recording := s.Actor()
	recording.Reset(11)
	actor := s.Evaluator(11)
	for i := 0; i < 60; i++ {
		ctx := ctxs[i%len(ctxs)]
		if got, want := actor.Pick(ctx), recording.Pick(ctx); got != want {
			t.Fatalf("pick %d: evaluator samples %d, recording actor %d", i, got, want)
		}
	}
	if n := len(actor.TakeTrajectory().steps); n != 0 {
		t.Fatalf("an evaluator kept %d decisions", n)
	}
	if n := len(recording.TakeTrajectory().steps); n != 60 {
		t.Fatalf("the recording actor kept %d of 60 decisions", n)
	}
}
