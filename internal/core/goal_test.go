package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
)

// goalVectorPerJob is GoalVectorInto's accumulation as it was before the
// loops were interchanged — every job visits every resource, converting the
// capacity each time — kept as the bitwise oracle.
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

func TestGoalVectorIntoMatchesPerJobFormBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctxs := pickContexts()
	idle := cluster.New(sys())
	ctxs = append(ctxs, ctxWith(idle, 0, nil))
	for _, n := range []int{1, 2, 7, 64, 270} {
		ctxs = append(ctxs, deepContext(rng, n))
	}
	var dst []float64
	for i, ctx := range ctxs {
		dst = GoalVectorInto(dst, ctx)
		want := goalVectorPerJob(ctx)
		for res := range want {
			if math.Float64bits(dst[res]) != math.Float64bits(want[res]) {
				t.Fatalf("context %d resource %d: %v, per-job form %v", i, res, dst[res], want[res])
			}
		}
	}
}

func BenchmarkGoalVectorInto(b *testing.B) {
	ctx := deepContext(rand.New(rand.NewSource(18)), 270)
	var dst []float64
	b.Run("interchanged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = GoalVectorInto(dst, ctx)
		}
	})
	b.Run("per-job", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = goalVectorPerJob(ctx)
		}
	})
}
