package core

import (
	"slices"

	"repro/internal/cluster"
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
// load at all it falls back to uniform weights. GoalVector divides every
// fraction out where it meets it; a caller that decides again and again
// keeps a goalTable instead, which gives the same bits.
func GoalVector(ctx *sched.PickContext) []float64 {
	var t goalTable
	t.build(ctx.Cluster, false)
	return t.vector(nil, ctx)
}

// goalTable reads Eq. (1)'s fractions P_ij = d/c from a table instead of
// dividing them out for every job at every decision: for each resource, the
// fraction of every demand from 0 to the capacity, built once per capacity
// vector. An entry is the division GoalVector does, so the same bits; a demand
// past the table is divided where it is met. MRSchActor and BatchDecider each
// own one; the zero value is ready for into.
type goalTable struct {
	caps []int        // the capacity vector res was built for
	res  []demandFrac // one per resource
}

// demandFrac is one resource's capacity and, when tabulated, the fraction of
// every demand up to it.
type demandFrac struct {
	c float64
	f []float64 // f[d] = float64(d) / c
}

// of is P for a demand of d units.
func (p demandFrac) of(d int) float64 {
	if uint(d) < uint(len(p.f)) {
		return p.f[d]
	}
	return float64(d) / p.c
}

// into is GoalVector into dst[:0], which it returns (grown if it was too
// short), for a caller that does not keep the vector past its next decision.
// The table is rebuilt when ctx's cluster is not the capacity vector it holds.
func (t *goalTable) into(dst []float64, ctx *sched.PickContext) []float64 {
	if !slices.Equal(t.caps, ctx.Cluster.Config().Capacities) {
		t.build(ctx.Cluster, true)
	}
	return t.vector(dst, ctx)
}

// build sizes the table to cl's resources, with every demand's fraction when
// tabulate is set and with the capacities alone otherwise.
func (t *goalTable) build(cl *cluster.Cluster, tabulate bool) {
	r := cl.NumResources()
	t.caps = append(t.caps[:0], cl.Config().Capacities...)
	t.res = slices.Grow(t.res[:0], r)[:r]
	for res := range t.res {
		p := &t.res[res]
		p.c = float64(t.caps[res])
		p.f = p.f[:0]
		if tabulate {
			p.f = slices.Grow(p.f, t.caps[res]+1)
			for d := 0; d <= t.caps[res]; d++ {
				p.f = append(p.f, float64(d)/p.c)
			}
		}
	}
}

// vector is Eq. (1) for ctx against the table's capacities, into dst[:0].
// The resources go two to a pass over the jobs (one pass on a two-resource
// machine), an odd one out paired with itself.
func (t *goalTable) vector(dst []float64, ctx *sched.PickContext) []float64 {
	r := len(t.res)
	acc := slices.Grow(dst[:0], r)[:r]
	for a := 0; a < r; a += 2 {
		b := min(a+1, r-1)
		acc[a], acc[b] = pairSums(ctx, a, b, t.res[a], t.res[b])
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

// pairSums is sum_i P_ij * t_i for resources a and b in one pass over the
// jobs, each sum in a register. Each still takes its terms in the order
// queue, then running set, so sharing a pass changes neither sum's bits.
func pairSums(ctx *sched.PickContext, a, b int, pa, pb demandFrac) (sa, sb float64) {
	for _, j := range ctx.Queue {
		sa += pa.of(j.Demand[a]) * j.Walltime
		sb += pb.of(j.Demand[b]) * j.Walltime
	}
	for _, al := range ctx.Cluster.Running() {
		remaining := al.EstEnd - ctx.Now
		if remaining < 0 {
			remaining = 0
		}
		sa += pa.of(al.Demand[a]) * remaining
		sb += pb.of(al.Demand[b]) * remaining
	}
	return sa, sb
}
