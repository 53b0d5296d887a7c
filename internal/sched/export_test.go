package sched

// ParetoLeaves reports how many branches Pareto's walk over ctx's window
// follows to the end of the window.
func ParetoLeaves(ctx *PickContext) int { return maximalSets(ctx, func([]int, int) {}) }
