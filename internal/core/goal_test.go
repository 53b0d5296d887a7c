package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
)

// goalVectorPerJob is Eq. (1) as it was first written — every job visits
// every resource, dividing its demand by the capacity each time — kept as the
// bitwise oracle of GoalVector and of a goalTable.
func goalVectorPerJob(ctx *sched.PickContext) []float64 {
	r := ctx.Cluster.NumResources()
	acc := make([]float64, r)
	for _, j := range ctx.Queue {
		for res := 0; res < r; res++ {
			p := float64(j.Demand[res]) / float64(ctx.Cluster.Capacity(res))
			acc[res] += p * j.Walltime
		}
	}
	for _, a := range ctx.Cluster.Running() {
		remaining := a.EstEnd - ctx.Now
		if remaining < 0 {
			remaining = 0
		}
		for res := 0; res < r; res++ {
			p := float64(a.Demand[res]) / float64(ctx.Cluster.Capacity(res))
			acc[res] += p * remaining
		}
	}
	var total float64
	for _, v := range acc {
		total += v
	}
	if total <= 0 {
		for i := range acc {
			acc[i] = 1 / float64(r)
		}
		return acc
	}
	for i := range acc {
		acc[i] /= total
	}
	return acc
}

// deepContext is a decision instant with n waiting jobs of irregular demands
// and walltimes and a few running ones, some already past their estimate.
func deepContext(rng *rand.Rand, n int) *sched.PickContext {
	cl := cluster.New(sys())
	for id := 0; id < 3; id++ {
		_ = cl.Allocate(1000+id, []int{1 + rng.Intn(3), rng.Intn(2)}, 0, 50+400*rng.Float64())
	}
	queue := make([]*job.Job, n)
	for i := range queue {
		queue[i] = mk(i+1, float64(i), 10+3600*rng.Float64(), 1+rng.Intn(16), rng.Intn(8))
	}
	return ctxWith(cl, 200, queue)
}

// resourceContext is a decision instant on a machine of the given
// capacities: a few running jobs, then n queued ones whose demands run from
// zero to each capacity — the two ends included in every resource — and one
// that asks for more than the machine has (past the table: divided).
func resourceContext(rng *rand.Rand, caps []int, n int) *sched.PickContext {
	cl := cluster.New(cluster.Config{Name: "r", Resources: make([]string, len(caps)), Capacities: caps})
	demand := func(f func(c int) int) []int {
		d := make([]int, len(caps))
		for res, c := range caps {
			d[res] = f(c)
		}
		return d
	}
	for id := 0; id < 3; id++ {
		_ = cl.Allocate(1000+id, demand(func(c int) int { return rng.Intn(c/3 + 1) }), 0, 50+400*rng.Float64())
	}
	queue := []*job.Job{
		{ID: 1, Walltime: 300, Demand: demand(func(c int) int { return c })},
		{ID: 2, Walltime: 500, Demand: demand(func(int) int { return 0 })},
		{ID: 3, Walltime: 70, Demand: demand(func(c int) int { return c + 1 + rng.Intn(3) })},
	}
	for i := len(queue); i < n; i++ {
		queue = append(queue, &job.Job{ID: i + 1, Walltime: 10 + 3600*rng.Float64(),
			Demand: demand(func(c int) int { return rng.Intn(c + 1) })})
	}
	return ctxWith(cl, 200, queue)
}

func TestGoalVectorIntoMatchesPerJobFormBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctxs := pickContexts()
	idle := cluster.New(sys())
	ctxs = append(ctxs, ctxWith(idle, 0, nil))
	for _, n := range []int{1, 2, 7, 64, 270} {
		ctxs = append(ctxs, deepContext(rng, n))
	}
	// Capacities whose fractions are inexact, one to five resources (an odd
	// one out shares its pass with itself), and a machine the table must be
	// rebuilt for between decisions.
	for _, caps := range [][]int{{7}, {137, 40}, {137, 40, 15}, {13, 1000, 3, 29}, {11, 6, 97, 1, 5}, {137, 40}} {
		for _, n := range []int{3, 4, 50} {
			ctxs = append(ctxs, resourceContext(rng, caps, n))
		}
	}
	var table goalTable
	var dst []float64
	for i, ctx := range ctxs {
		want := goalVectorPerJob(ctx)
		dst = table.into(dst, ctx)
		for _, got := range [][]float64{dst, GoalVector(ctx)} {
			if len(got) != len(want) {
				t.Fatalf("context %d: %d resources, per-job form %d", i, len(got), len(want))
			}
			for res := range want {
				if math.Float64bits(got[res]) != math.Float64bits(want[res]) {
					t.Fatalf("context %d resource %d: %v, per-job form %v", i, res, got[res], want[res])
				}
			}
		}
	}
}

func BenchmarkGoalVectorInto(b *testing.B) {
	ctx := deepContext(rand.New(rand.NewSource(18)), 270)
	var dst []float64
	var table goalTable
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = table.into(dst, ctx)
		}
	})
	b.Run("divide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = GoalVector(ctx)
		}
	})
	b.Run("per-job", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = goalVectorPerJob(ctx)
		}
	})
}
