package core

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// halfBusy is a cluster with 7 of 16 nodes and 5 of 8 burst-buffer units
// free.
func halfBusy() *cluster.Cluster {
	cl := cluster.New(sys())
	_ = cl.Allocate(100, []int{6, 2}, 0, 900)
	_ = cl.Allocate(101, []int{3, 1}, 0, 400)
	return cl
}

// pickContexts are a few decision instants on a half-busy cluster, with
// queues longer and shorter than the window.
func pickContexts() []*sched.PickContext {
	cl := halfBusy()
	queue := []*job.Job{mk(1, 0, 300, 8, 4), mk(2, 5, 100, 2, 0), mk(3, 9, 700, 12, 6), mk(4, 9, 50, 1, 1), mk(5, 11, 60, 4, 2)}
	return []*sched.PickContext{ctxWith(cl, 20, queue), ctxWith(cl, 35, queue[1:]), ctxWith(cl, 50, queue[3:]), ctxWith(cl, 60, queue[:1])}
}

// mootContext returns a decision instant where no waiting job fits, with a
// full window, at which the agent does not pick the head: the first such
// among a few clocks and rotations of one queue. A round builds it: two jobs
// start at t=0 and leave the half-busy cluster (they outrun every clock
// here), the queue arrives with them but for its last job, which arrives at
// the clock, and the simulator stops after that second round, which starts
// nothing, so its context still holds.
func mootContext(t *testing.T, m *MRSch) *sched.PickContext {
	t.Helper()
	queue := []*job.Job{mk(1, 0, 300, 8, 4), mk(3, 9, 700, 12, 6), mk(6, 12, 200, 10, 1), mk(7, 14, 900, 3, 6), mk(8, 15, 100, 16, 8)}
	for now := 20.0; now < 1e5; now *= 3 {
		for range queue {
			jobs := []*job.Job{
				{ID: 100, Runtime: 1e6, Walltime: 900, Demand: []int{6, 2}},
				{ID: 101, Runtime: 1e6, Walltime: 400, Demand: []int{3, 1}},
			}
			for _, j := range job.CloneAll(queue) {
				j.Submit = 0
				jobs = append(jobs, j)
			}
			jobs[len(jobs)-1].Submit = now
			var ctx *sched.PickContext
			s := sim.New(sys(), sched.NewWindowPolicy(sched.PickerFunc(func(c *sched.PickContext) int {
				ctx = c
				return 0
			}), m.Enc.Window))
			s.SetMaxEvents(1)
			if err := s.Load(jobs); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err == nil || ctx.Now != now || len(ctx.Queue) != len(queue) {
				t.Fatalf("the simulator should stop after its round at t=%v with %d jobs waiting: %v", now, len(queue), err)
			}
			if ctx.Startable() {
				t.Fatal("a job of the moot queue fits")
			}
			if m.Pick(ctx) != 0 {
				return ctx
			}
			queue = append(queue[1:], queue[0])
		}
	}
	t.Fatal("the agent picks the head at every moot candidate")
	return nil
}

// An evaluator, the unrecorded actor, decides from buffers it owns: the
// state, the goal and the network's activations are all in place after the
// first pick. Its picks are those of a recording actor and of the agent
// itself at every startable instant; at a moot one (no waiting job fits) it
// answers 0 without its model, where the recording actor still answers the
// agent's pick. The recording actor was Reset and the evaluator packs at its
// first forward, so under a kernel set that packs (CI runs this package on
// the CPU's set and in a purego build) their first layer runs packed while
// the agent's runs dense: the pick equality and the zero below hold for the
// packed path too.
func TestUnrecordedActorPickAllocatesNothing(t *testing.T) {
	m := New(sys(), tinyOptions(5))
	ctxs := pickContexts()
	recording, _ := m.Actor()
	recording.Reset(9, 0)
	actor := m.Model().Evaluator()
	for i, ctx := range ctxs { // also the warm-up
		got, rec, want := actor.Pick(ctx), recording.Pick(ctx), m.Pick(ctx)
		if got != want || rec != want {
			t.Fatalf("context %d: evaluator picks %d, recording actor %d, agent %d", i, got, rec, want)
		}
	}
	moot := mootContext(t, m)
	if got, rec, want := actor.Pick(moot), recording.Pick(moot), m.Pick(moot); got != 0 || rec != want {
		t.Fatalf("moot context: evaluator picks %d, want 0; recording actor %d, agent %d", got, rec, want)
	}
	ctxs = append(ctxs, moot)
	// A transcript is opaque; what it held shows in the replay it feeds.
	if m.Ingest(actor.TakeTranscript()); m.Agent.ReplaySize() != 0 {
		t.Fatalf("an evaluator kept %d experiences' worth of decisions", m.Agent.ReplaySize())
	}
	if m.Ingest(recording.TakeTranscript()); m.Agent.ReplaySize() == 0 {
		t.Fatal("the recording actor kept no decisions")
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		actor.Pick(ctxs[i%len(ctxs)])
		i++
	}); avg != 0 {
		t.Fatalf("%v allocations per evaluator pick, want 0", avg)
	}
}

// A decider that has seen a batch of b contexts decides any batch of at most
// b without allocating, and row for row like the agent.
func TestBatchDeciderAllocatesNothingOnceWarm(t *testing.T) {
	for _, fixed := range [][]float64{nil, {0.7, 0.3}} {
		m := New(sys(), tinyOptions(6))
		m.FixedGoal = fixed
		d := m.Model().BatchDecider()
		ctxs := pickContexts()
		dst := d.Decide(ctxs, nil)
		for i, ctx := range ctxs {
			if want := m.Pick(ctx); dst[i] != want {
				t.Fatalf("fixed goal %v, row %d: decider picks %d, agent %d", fixed, i, dst[i], want)
			}
		}
		want := slices.Clone(dst)
		for _, b := range []int{len(ctxs), 1, 3} {
			if avg := testing.AllocsPerRun(100, func() { dst = d.Decide(ctxs[:b], dst) }); avg != 0 {
				t.Fatalf("fixed goal %v: %v allocations per warm batch of %d, want 0", fixed, avg, b)
			}
			if !slices.Equal(dst, want[:b]) {
				t.Fatalf("fixed goal %v: warm batch of %d decided %v, want %v", fixed, b, dst, want[:b])
			}
		}
	}
}
