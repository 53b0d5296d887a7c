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
	for trial := 0; trial < 20; trial++ {
		if got := s.Pick(ctxWith(cl, 0, queue)); got < 0 || got >= 2 {
			t.Fatalf("pick %d out of range", got)
		}
	}
}

// In eval mode the policy network's share of a Pick must not touch the heap:
// whatever a Pick allocates is the state encoding's.
func TestPickNetworkZeroAlloc(t *testing.T) {
	s := New(sys(), tinyConfig(3))
	ctx := ctxWith(cluster.New(sys()), 0, []*job.Job{mk(1, 0, 10, 1, 0), mk(2, 0, 10, 2, 1)})
	s.Pick(ctx) // warm the layer buffers
	encode := testing.AllocsPerRun(100, func() { s.enc.Encode(ctx) })
	pick := testing.AllocsPerRun(100, func() { s.Pick(ctx) })
	if pick != encode {
		t.Fatalf("eval Pick allocates %v times, the encoding alone %v: the network pass allocates", pick, encode)
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

func TestEndEpisodeEmpty(t *testing.T) {
	s := New(sys(), tinyConfig(3))
	if got := s.EndEpisode(); got != 0 {
		t.Fatalf("empty episode loss = %v", got)
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
	simu := sim.New(sys(), s.Policy())
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
	s.Train = true
	rng := rand.New(rand.NewSource(7))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 25; i++ {
		clk += float64(rng.Intn(40))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(200)+10), rng.Intn(12)+1, rng.Intn(7)))
	}
	simu := sim.New(sys(), s.Policy())
	if err := simu.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := simu.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.episode) == 0 {
		t.Fatal("training mode recorded no steps")
	}
	before := snapshot(s)
	if loss := s.EndEpisode(); math.IsNaN(loss) {
		t.Fatal("NaN policy loss")
	}
	if len(s.episode) != 0 {
		t.Fatal("episode not cleared")
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
// picking the job that lifts utilization. After repeated single-step
// episodes the policy probability mass must shift toward the fitting,
// high-utilization action.
func TestPolicyLearnsUtilizationBandit(t *testing.T) {
	cfg := tinyConfig(8)
	cfg.LR = 5e-3
	s := New(sys(), cfg)
	cl := cluster.New(sys())
	queue := []*job.Job{
		mk(1, 0, 100, 1, 0),  // low reward
		mk(2, 0, 100, 14, 7), // high reward
	}
	s.Train = true
	for ep := 0; ep < 300; ep++ {
		// Multi-pull episodes: with a mean baseline, a single-step episode
		// has zero advantage, so each episode makes several decisions.
		for pull := 0; pull < 6; pull++ {
			s.Pick(ctxWith(cl, 0, queue))
		}
		s.EndEpisode()
	}
	s.Train = false
	counts := [2]int{}
	for i := 0; i < 50; i++ {
		counts[s.Pick(ctxWith(cl, 0, queue))]++
	}
	if counts[1] < 40 {
		t.Fatalf("policy failed to prefer high-reward action: %v", counts)
	}
}

// An unrecorded actor samples what a recording one samples, keeps no
// trajectory, and once warm allocates nothing per pick.
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
	actor := s.Actor()
	actor.Reset(11)
	actor.Unrecorded()
	for i := 0; i < 60; i++ {
		ctx := ctxs[i%len(ctxs)]
		if got, want := actor.Pick(ctx), recording.Pick(ctx); got != want {
			t.Fatalf("pick %d: unrecorded actor samples %d, recording actor %d", i, got, want)
		}
	}
	if n := len(actor.TakeTrajectory().steps); n != 0 {
		t.Fatalf("an unrecorded actor kept %d decisions", n)
	}
	if n := len(recording.TakeTrajectory().steps); n != 60 {
		t.Fatalf("the recording actor kept %d of 60 decisions", n)
	}
	if avg := testing.AllocsPerRun(100, func() { actor.Pick(ctxs[0]) }); avg != 0 {
		t.Fatalf("%v allocations per unrecorded pick, want 0", avg)
	}
}
