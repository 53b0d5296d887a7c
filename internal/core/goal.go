package core

import (
	"slices"

	"repro/internal/sched"
)

// GoalVector computes the dynamic resource priorities of Eq. (1):
//
//	r_j = sum_i P_ij * t_i / sum_j sum_i P_ij * t_i
//
// over all jobs in the system — queued jobs contribute their full
// user-supplied runtime estimate, running jobs their remaining estimate —
// where P_ij is job i's demand for resource j as a fraction of capacity.
// The value r_j is the normalized time it would take to drain all pending
// demand for resource j at full utilization: the fiercer the contention for
// a resource, the larger its weight (§III-B).
//
// The result is a probability simplex (non-negative, sums to 1); with no
// load at all it falls back to uniform weights.
func GoalVector(ctx *sched.PickContext) []float64 { return GoalVectorInto(nil, ctx) }

// GoalVectorInto is GoalVector into dst[:0], which it returns (grown if it
// was too short), for a caller that does not keep the vector past its next
// decision.
func GoalVectorInto(dst []float64, ctx *sched.PickContext) []float64 {
	r := ctx.Cluster.NumResources()
	acc := slices.Grow(dst[:0], r)[:r]
	running := ctx.Cluster.Running()

	// One resource at a time, so that its capacity is converted once and its
	// sum stays in a register; each sum still takes its terms in the order
	// queue, then running set, each term d / c * t.
	for res := range acc {
		c := float64(ctx.Cluster.Capacity(res))
		var sum float64
		for _, j := range ctx.Queue {
			p := float64(j.Demand[res]) / c
			sum += p * j.Walltime
		}
		for _, a := range running {
			remaining := a.EstEnd - ctx.Now
			if remaining < 0 {
				remaining = 0
			}
			p := float64(a.Demand[res]) / c
			sum += p * remaining
		}
		acc[res] = sum
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
