package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dfp"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

func sys() cluster.Config {
	return cluster.Config{Name: "c", Resources: []string{"nodes", "bb"}, Capacities: []int{16, 8}}
}

func mk(id int, submit, wall float64, nodes, bb int) *job.Job {
	return &job.Job{ID: id, Submit: submit, Runtime: wall, Walltime: wall, Demand: []int{nodes, bb}}
}

func tinyOptions(seed int64) Options {
	return Options{
		Window: 4,
		Seed:   seed,
		Mutate: func(c *dfp.Config) {
			c.StateHidden = []int{32}
			c.StateOut = 16
			c.ModuleHidden = 8
			c.StreamHidden = 16
			c.Offsets = []int{1, 2, 4}
			c.TemporalWeights = []float64{0, 0.5, 1}
		},
	}
}

func ctxWith(cl *cluster.Cluster, now float64, queue []*job.Job) *sched.PickContext {
	w := queue
	if len(w) > 4 {
		w = w[:4]
	}
	return &sched.PickContext{Now: now, Window: w, Queue: queue, Cluster: cl, Usage: cl.Usage()}
}

func TestGoalVectorUniformWhenIdle(t *testing.T) {
	cl := cluster.New(sys())
	g := GoalVector(ctxWith(cl, 0, nil))
	if len(g) != 2 || g[0] != 0.5 || g[1] != 0.5 {
		t.Fatalf("idle goal = %v, want uniform", g)
	}
}

func TestGoalVectorKnownValues(t *testing.T) {
	cl := cluster.New(sys())
	// One queued job: 8/16 nodes for 100s => 50; 4/8 bb for 100s => 50.
	queue := []*job.Job{mk(1, 0, 100, 8, 4)}
	g := GoalVector(ctxWith(cl, 0, queue))
	if math.Abs(g[0]-0.5) > 1e-12 || math.Abs(g[1]-0.5) > 1e-12 {
		t.Fatalf("balanced goal = %v", g)
	}
	// BB-heavy job: nodes 1/16*100 = 6.25; bb 8/8*100 = 100.
	queue = []*job.Job{mk(2, 0, 100, 1, 8)}
	g = GoalVector(ctxWith(cl, 0, queue))
	if g[1] <= g[0] {
		t.Fatalf("bb contention should dominate: %v", g)
	}
	want1 := 100.0 / (100.0 + 6.25)
	if math.Abs(g[1]-want1) > 1e-9 {
		t.Fatalf("g[1] = %v, want %v", g[1], want1)
	}
}

func TestGoalVectorIncludesRunningJobs(t *testing.T) {
	cl := cluster.New(sys())
	// Running job holds all BB with 50s remaining.
	if err := cl.Allocate(9, []int{1, 8}, 0, 50); err != nil {
		t.Fatal(err)
	}
	g := GoalVector(ctxWith(cl, 0, nil))
	if g[1] <= g[0] {
		t.Fatalf("running bb demand ignored: %v", g)
	}
	// After the estimate expires, remaining clamps to 0 -> uniform fallback.
	g = GoalVector(ctxWith(cl, 100, nil))
	if g[0] != 0.5 {
		t.Fatalf("overdue running job should contribute nothing: %v", g)
	}
}

// Property: the goal vector is always a probability simplex.
func TestGoalVectorSimplexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(sys())
		now := float64(rng.Intn(1000))
		for id := 1; id <= rng.Intn(5); id++ {
			d := []int{rng.Intn(8) + 1, rng.Intn(6)}
			if cl.CanFit(d) {
				_ = cl.Allocate(id, d, now, now+float64(rng.Intn(2000)))
			}
		}
		var queue []*job.Job
		for i := 0; i < rng.Intn(6); i++ {
			queue = append(queue, mk(100+i, now, float64(rng.Intn(5000)+1), rng.Intn(16)+1, rng.Intn(9)))
		}
		g := GoalVector(ctxWith(cl, now, queue))
		sum := 0.0
		for _, v := range g {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The agent's pick acts on GoalVector(ctx), the very call through which
// Figures 8-9 observe the goal of every pick (a Picker wrapper records it),
// and on a FixedGoal in its place.
func TestMRSchPickActsOnGoalVector(t *testing.T) {
	m := New(sys(), tinyOptions(5))
	for _, fixed := range [][]float64{nil, {0.9, 0.1}} {
		m.FixedGoal = fixed
		for i, ctx := range pickContexts() {
			goal := fixed
			if goal == nil {
				goal = GoalVector(ctx)
			}
			want := m.Agent.Act(m.Enc.Encode(ctx), ctx.Usage, goal, len(ctx.Window), false)
			if got := m.Pick(ctx); got != want {
				t.Fatalf("fixed goal %v, context %d: Pick = %d, acting on the goal vector picks %d", fixed, i, got, want)
			}
		}
	}
}

func TestMRSchEndToEndSimulation(t *testing.T) {
	// An untrained agent must still schedule every job (the framework
	// guarantees progress via reservation + backfilling).
	m := New(sys(), tinyOptions(7))
	rng := rand.New(rand.NewSource(3))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 40; i++ {
		clk += float64(rng.Intn(60))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(500)+10), rng.Intn(16)+1, rng.Intn(9)))
	}
	s := sim.New(sys(), sched.NewWindowPolicy(m, m.Enc.Window))
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State != job.Finished {
			t.Fatalf("job %d not finished", j.ID)
		}
	}
}

// An evaluator schedules greedily whatever the agent's training epsilon: an
// actor otherwise starts at that epsilon, and a fresh agent's is 1. Its
// schedule of a trace is the reference policy's, job for job, while an
// actor left at the training epsilon schedules the trace otherwise.
func TestEvaluatorIgnoresTrainingEpsilon(t *testing.T) {
	m := New(sys(), tinyOptions(13))
	if m.Agent.Epsilon() <= 0 {
		t.Fatalf("a fresh agent's epsilon is %v, want it above 0", m.Agent.Epsilon())
	}
	rng := rand.New(rand.NewSource(8))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 60; i++ {
		clk += float64(rng.Intn(40))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(500)+10), rng.Intn(16)+1, rng.Intn(9)))
	}
	starts := func(p *sched.WindowPolicy) []float64 {
		s := sim.New(sys(), p)
		if err := s.Load(job.CloneAll(jobs)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(jobs)+1)
		for _, j := range s.Finished() {
			out[j.ID] = j.Start
		}
		return out
	}
	want := starts(sched.NewWindowPolicy(m, m.Enc.Window))
	if got := starts(m.Model().Evaluator().Policy()); !slices.Equal(got, want) {
		t.Fatalf("the evaluator's start times %v, the reference policy's %v", got, want)
	}
	exploring, _ := m.Actor()
	if slices.Equal(starts(exploring.Policy()), want) {
		t.Fatal("an actor at the training epsilon schedules the trace like the greedy agent: the trace cannot tell them apart")
	}
}

func TestActorEpisodeAccumulatesExperienceAndLoss(t *testing.T) {
	m := New(sys(), tinyOptions(11))
	rng := rand.New(rand.NewSource(4))
	var jobs []*job.Job
	clk := 0.0
	for i := 1; i <= 30; i++ {
		clk += float64(rng.Intn(40))
		jobs = append(jobs, mk(i, clk, float64(rng.Intn(300)+10), rng.Intn(12)+1, rng.Intn(7)))
	}
	cfg := TrainConfig{System: sys(), StepsPerEpisode: 4}
	res, err := actorEpisode(m, cfg, JobSet{Kind: Sampled, Jobs: jobs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Agent.ReplaySize() == 0 {
		t.Fatal("no experiences recorded")
	}
	if res.Loss < 0 {
		t.Fatal("no training happened")
	}
	if res.Epsilon >= 1.0 {
		t.Fatal("epsilon did not decay")
	}
}

// actorEpisode is one training episode as the rollout harness runs it, minus
// the harness: an actor at the agent's current epsilon explores the set and
// records it, the agent ingests the transcript and takes cfg.StepsPerEpisode
// gradient steps.
func actorEpisode(m *MRSch, cfg TrainConfig, set JobSet, seed int64) (EpisodeResult, error) {
	actor, _ := m.Actor()
	actor.Reset(seed, m.Agent.Epsilon())
	s := sim.New(cfg.System, actor.Policy())
	if err := s.Load(job.CloneAll(set.Jobs)); err != nil {
		return EpisodeResult{}, err
	}
	if err := s.Run(); err != nil {
		return EpisodeResult{}, err
	}
	m.Ingest(actor.TakeTranscript())
	total, n := 0.0, 0
	m.Agent.TrainSteps(cfg.StepsPerEpisode, func(l float64) {
		if l >= 0 {
			total += l
			n++
		}
	})
	res := EpisodeResult{Set: set.Kind, Epsilon: m.Agent.Epsilon(), Loss: -1}
	if n > 0 {
		res.Loss = total / float64(n)
	}
	return res, nil
}

// trainSets is a harness-free training loop: actorEpisode over the sets in
// order, with an optional model-selection protocol observing every episode.
func trainSets(m *MRSch, cfg TrainConfig, sets []JobSet, sel *Selection) ([]EpisodeResult, error) {
	var results []EpisodeResult
	for i, set := range sets {
		r, err := actorEpisode(m, cfg, set, int64(i))
		if err != nil {
			return results, err
		}
		results = append(results, r)
		if sel != nil {
			if err := sel.AfterEpisode(i, r); err != nil {
				return results, err
			}
		}
	}
	return results, nil
}

func TestTrainCurriculumRunsAllSets(t *testing.T) {
	m := New(sys(), tinyOptions(13))
	rng := rand.New(rand.NewSource(5))
	mkSet := func(kind JobSetKind) JobSet {
		var jobs []*job.Job
		clk := 0.0
		for i := 1; i <= 15; i++ {
			clk += float64(rng.Intn(40))
			jobs = append(jobs, mk(i, clk, float64(rng.Intn(200)+10), rng.Intn(10)+1, rng.Intn(5)))
		}
		return JobSet{Kind: kind, Jobs: jobs}
	}
	sets := []JobSet{mkSet(Sampled), mkSet(Real), mkSet(Synthetic)}
	results, err := trainSets(m, TrainConfig{System: sys(), StepsPerEpisode: 2}, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Set != Sampled || results[2].Set != Synthetic {
		t.Fatal("set kinds not preserved in order")
	}
}

func TestSaveLoadPreservesDecisions(t *testing.T) {
	m := New(sys(), tinyOptions(17))
	cl := cluster.New(sys())
	queue := []*job.Job{mk(1, 0, 100, 2, 1), mk(2, 0, 50, 8, 4), mk(3, 0, 10, 1, 0)}
	want := m.Pick(ctxWith(cl, 0, queue))

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(sys(), tinyOptions(999))
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := m2.Pick(ctxWith(cl, 0, queue)); got != want {
		t.Fatalf("restored agent picked %d, original %d", got, want)
	}
}

func TestJobSetKindString(t *testing.T) {
	if Sampled.String() != "Sampled" || Real.String() != "Real" || Synthetic.String() != "Synthetic" {
		t.Fatal("kind strings wrong")
	}
}

func TestNewDefaultWindow(t *testing.T) {
	m := New(sys(), Options{Seed: 1, Mutate: func(c *dfp.Config) {
		c.StateHidden = []int{16}
		c.StateOut = 8
		c.ModuleHidden = 4
		c.StreamHidden = 8
	}})
	if m.Enc.Window != 10 {
		t.Fatalf("default window = %d, want 10 (paper)", m.Enc.Window)
	}
}

// A goalTable's vector is GoalVector in the caller's storage, stale contents,
// the idle fallback and a change of machine included.
func TestGoalVectorIntoMatchesGoalVector(t *testing.T) {
	cl := cluster.New(sys())
	_ = cl.Allocate(99, []int{8, 2}, 0, 500)
	wider := cluster.New(cluster.Config{Name: "w", Resources: []string{"a", "b", "c"}, Capacities: []int{32, 8, 5}})
	var table goalTable
	buf := []float64{7, 7, 7, 7}
	for _, ctx := range []*sched.PickContext{
		ctxWith(cl, 100, []*job.Job{mk(1, 0, 100, 8, 4), mk(2, 0, 50, 2, 0)}),
		ctxWith(cluster.New(sys()), 0, nil),
		ctxWith(wider, 0, []*job.Job{{ID: 3, Walltime: 60, Demand: []int{4, 0, 5}}}),
		ctxWith(cl, 100, []*job.Job{mk(1, 0, 100, 8, 4)}),
	} {
		want := GoalVector(ctx)
		buf = table.into(buf, ctx)
		if !slices.Equal(buf, want) {
			t.Fatalf("goal table = %v, GoalVector = %v", buf, want)
		}
	}
}
