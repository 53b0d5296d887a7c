package sched

import (
	"slices"

	"repro/internal/cluster"
)

// Pareto is the paper's Optimization baseline (§IV-D): BBSched's
// multi-objective window selection (Fan et al., "Scheduling Beyond CPUs for
// HPC"), solved exactly where that paper runs a genetic algorithm. A
// candidate is a set of window jobs a greedy pack admits onto the free
// resources, a maximal feasible subset of the window; its objectives are the
// per-resource utilizations once it starts. Pick enumerates every such set
// and takes their Knee.
//
//   - Tie rule: of the sets with the knee's score, the one that uses the most
//     of the first resource wins, then of the second, and so on (Knee); of
//     sets equal in all, the first in walk order, which takes a fitting job
//     before it leaves it out. Pick returns the set's lowest window index.
//   - Moot rule: when no window job fits, Pick returns 0, the head, which the
//     round then reserves, as under FCFS.
type Pareto struct{}

// Pick implements Picker.
func (Pareto) Pick(ctx *PickContext) int {
	if len(ctx.Window) == 0 {
		return -1
	}
	var leads []int
	var objs [][]float64
	maximalSets(ctx, func(free []int, lead int) {
		obj := make([]float64, len(free))
		for r, c := range ctx.Cluster.Config().Capacities {
			obj[r] = float64(c-free[r]) / float64(c)
		}
		// The empty set is maximal only where nothing fits: the moot rule.
		leads, objs = append(leads, max(lead, 0)), append(objs, obj)
	})
	return leads[Knee(objs)]
}

// maximalSets walks ctx's window depth-first, taking each fitting job before
// leaving it out, and calls leaf with what every maximal feasible subset
// leaves free and its lowest window index (-1 if empty), in walk order. It
// returns how many branches it followed to the window's end.
func maximalSets(ctx *PickContext, leaf func(free []int, lead int)) (leaves int) {
	w, free := ctx.Window, ctx.Cluster.FreeVec()
	nr := len(free)
	rest := make([]int, (len(w)+1)*nr) // rest[i*nr+r]: Window[i:]'s summed demand on r
	for i := len(w) - 1; i >= 0; i-- {
		for r, d := range w[i].Demand {
			rest[i*nr+r] = rest[(i+1)*nr+r] + d
		}
	}
	var skipped []int // the fitting jobs the branch leaves out
	var visit func(i, lead int)
	visit = func(i, lead int) {
		if i == len(w) {
			leaves++
			if !slices.ContainsFunc(skipped, func(s int) bool { return cluster.Fits(w[s].Demand, free) }) {
				leaf(free, lead)
			}
			return
		}
		d := w[i].Demand
		if !cluster.Fits(d, free) { // free only shrinks down a branch
			visit(i+1, lead)
			return
		}
		first := lead
		if first < 0 {
			first = i
		}
		for r := range d {
			free[r] -= d[r]
		}
		visit(i+1, first)
		for r := range d {
			free[r] += d[r]
		}
		// Leaving the job out ends in a maximal set only if the jobs still
		// to come can take the room it needs on some resource.
		for r := range d {
			if d[r]+rest[(i+1)*nr+r] > free[r] {
				skipped = append(skipped, i)
				visit(i+1, lead)
				skipped = skipped[:len(skipped)-1]
				return
			}
		}
	}
	visit(0, -1)
	return leaves
}

// Dominates reports whether objective vector a Pareto-dominates b under
// maximization: a is no worse in every objective and strictly better in at
// least one.
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		better = better || a[i] > b[i]
	}
	return better
}

// Knee returns the index of the knee of objs' Pareto front: of the vectors
// no other dominates, the one whose min-max-normalized sum over the front is
// largest (an objective flat across the front scores 1), the balanced
// compromise. Of equal sums the lexicographically largest vector wins, then
// the first in objs. Knee of no vectors is -1.
func Knee(objs [][]float64) int {
	var front []int
	for i, a := range objs {
		if !slices.ContainsFunc(objs, func(b []float64) bool { return Dominates(b, a) }) {
			front = append(front, i)
		}
	}
	if len(front) == 0 {
		return -1
	}
	lo, hi := slices.Clone(objs[front[0]]), slices.Clone(objs[front[0]])
	for _, i := range front {
		for k, v := range objs[i] {
			lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
		}
	}
	best, bestScore := -1, 0.0
	for _, i := range front {
		score := 0.0
		for k, v := range objs[i] {
			if span := hi[k] - lo[k]; span > 0 {
				score += (v - lo[k]) / span
			} else {
				score++
			}
		}
		if best < 0 || score > bestScore || score == bestScore && slices.Compare(objs[i], objs[best]) > 0 {
			best, bestScore = i, score
		}
	}
	return best
}
