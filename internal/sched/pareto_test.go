package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{0, 0}, true},
		{[]float64{1, 0}, []float64{0, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{1, 2}, []float64{1, 1}, true},
		{[]float64{0, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestKneePicksBalanced(t *testing.T) {
	objs := [][]float64{{1, 0}, {0.7, 0.7}, {0, 1}}
	if got := Knee(objs); got != 1 {
		t.Fatalf("Knee = %d, want 1 (balanced)", got)
	}
	// {0,0} is dominated and no candidate; of two equal knees the first wins.
	front := [][]float64{{0, 0}, {4, 1}, {3.5, 3.5}, {1, 4}, {3.5, 3.5}}
	if got := Knee(front); got != 2 {
		t.Fatalf("Knee = %d, want 2 (balanced, first of two equals)", got)
	}
	// A two-member front ties at 1: the fuller first objective wins.
	tied := [][]float64{{0.9, 1.0}, {1.0, 0.5}}
	if got := Knee(tied); got != 1 {
		t.Fatalf("Knee of a tie = %d, want 1 (more of the first objective)", got)
	}
	if got := Knee(nil); got != -1 {
		t.Fatal("Knee of empty front should be -1")
	}
}

func paretoCluster() cluster.Config {
	return cluster.Config{Name: "g", Resources: []string{"A", "B"}, Capacities: []int{100, 100}}
}

func mkPct(id int, a, b int, runtime float64) *job.Job {
	return &job.Job{ID: id, Submit: 0, Runtime: runtime, Walltime: runtime, Demand: []int{a, b}}
}

// The Figure 1 scenario: four jobs where fixed-arrival FCFS wastes an hour
// but a packing-aware method achieves the 2-hour makespan. The picker must
// find the complementary pairing.
func TestParetoFindsComplementaryPairing(t *testing.T) {
	// J1=(55,10) J2=(50,40) J3=(40,60) J4=(50,10):
	// optimal pairs {J1,J3} and {J2,J4} -> makespan 2h.
	jobs := []*job.Job{
		mkPct(1, 55, 10, 3600),
		mkPct(2, 50, 40, 3600),
		mkPct(3, 40, 60, 3600),
		mkPct(4, 50, 10, 3600),
	}
	s := sim.New(paretoCluster(), NewWindowPolicy(Pareto{}, 10))
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	makespan := 0.0
	for _, j := range jobs {
		makespan = max(makespan, j.End)
	}
	if makespan > 2*3600+1 {
		t.Fatalf("Pareto makespan = %v h, want 2h", makespan/3600)
	}
}

func TestParetoPickReturnsFittingJobWhenPossible(t *testing.T) {
	cl := cluster.New(paretoCluster())
	// Occupy most of resource A so only the small job fits.
	if err := cl.Allocate(99, []int{90, 0}, 0, 1000); err != nil {
		t.Fatal(err)
	}
	window := []*job.Job{
		mkPct(1, 50, 10, 100), // does not fit (A)
		mkPct(2, 5, 5, 100),   // fits
	}
	if got := (Pareto{}).Pick(pickCtx(cl, window...)); got != 1 {
		t.Fatalf("Pick = %d, want 1 (the fitting job)", got)
	}
}

func TestParetoPickSingletonAndEmpty(t *testing.T) {
	cl := cluster.New(paretoCluster())
	if got := (Pareto{}).Pick(pickCtx(cl, mkPct(1, 5, 5, 10))); got != 0 {
		t.Fatalf("singleton Pick = %d", got)
	}
	if got := (Pareto{}).Pick(pickCtx(cl)); got != -1 {
		t.Fatalf("empty Pick = %d", got)
	}
}

// A window that fits whole on an empty cluster has one maximal set, the
// window itself. The walk must reach it along one branch: leaving any job
// out can never end in a maximal set, and without that cut this window is
// 2^20 branches.
func TestParetoWalkPrunesAWindowThatFitsWhole(t *testing.T) {
	cl := cluster.New(paretoCluster())
	window := make([]*job.Job, 20)
	for i := range window {
		window[i] = mkPct(i+1, 1+i%4, 4-i%4, 100)
	}
	ctx := pickCtx(cl, window...)
	if got := (Pareto{}).Pick(ctx); got != 0 {
		t.Fatalf("Pick = %d, want 0", got)
	}
	if got := ParetoLeaves(ctx); got != 1 {
		t.Fatalf("the walk reached %d leaves, want 1", got)
	}
}

// randomInstant is a window of w jobs on an nr-resource cluster whose free
// vector a running job has cut to random levels. Demands reach half a
// resource's capacity and may be zero, so sets tie and nothing may fit.
func randomInstant(rng *rand.Rand, w, nr int) *PickContext {
	caps := make([]int, nr)
	for r := range caps {
		caps[r] = 4 + rng.Intn(60)
	}
	cl := cluster.New(cluster.Config{Name: "o", Resources: []string{"A", "B", "C"}[:nr], Capacities: caps})
	used := make([]int, nr)
	for r := range used {
		used[r] = rng.Intn(caps[r] + 1)
	}
	if err := cl.Allocate(999, used, 0, 1000); err != nil {
		panic(err)
	}
	window := make([]*job.Job, w)
	for i := range window {
		d := make([]int, nr)
		for r := range d {
			d[r] = rng.Intn(caps[r]/2 + 1)
		}
		window[i] = &job.Job{ID: i + 1, Runtime: 100, Walltime: 100, Demand: d}
	}
	return pickCtx(cl, window...)
}

// kneeSets is the oracle: the search space as the genetic algorithm this
// picker replaced defined it, every ordering of the window greedily packed
// onto the free resources, reduced to its non-dominated packs and scored by
// min-max normalisation, all written without the walk or the package's
// front and knee code. It returns the packs that attain the best score, each
// as a bit mask of window indices.
func kneeSets(ctx *PickContext) []int {
	w, cl := ctx.Window, ctx.Cluster
	var sets []int
	var objs [][]float64
	seen := map[int]bool{}
	perm := make([]int, len(w))
	for i := range perm {
		perm[i] = i
	}
	var permute func(k int)
	permute = func(k int) {
		if k < len(perm) {
			for i := k; i < len(perm); i++ {
				perm[k], perm[i] = perm[i], perm[k]
				permute(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
			return
		}
		free := cl.FreeVec()
		set := 0
		for _, i := range perm {
			if cluster.Fits(w[i].Demand, free) {
				for r, d := range w[i].Demand {
					free[r] -= d
				}
				set |= 1 << i
			}
		}
		if seen[set] {
			return
		}
		seen[set] = true
		obj := make([]float64, len(free))
		for r := range obj {
			obj[r] = float64(cl.Capacity(r)-free[r]) / float64(cl.Capacity(r))
		}
		sets, objs = append(sets, set), append(objs, obj)
	}
	permute(0)

	var front []int
	for i, a := range objs {
		dominated := false
		for _, b := range objs {
			noWorse, better := true, false
			for r := range a {
				noWorse = noWorse && b[r] >= a[r]
				better = better || b[r] > a[r]
			}
			dominated = dominated || noWorse && better
		}
		if !dominated {
			front = append(front, i)
		}
	}
	nr := cl.NumResources()
	lo, hi := make([]float64, nr), make([]float64, nr)
	for r := range lo {
		lo[r], hi[r] = math.Inf(1), math.Inf(-1)
		for _, i := range front {
			lo[r], hi[r] = math.Min(lo[r], objs[i][r]), math.Max(hi[r], objs[i][r])
		}
	}
	scores := make([]float64, len(front))
	best := math.Inf(-1)
	for k, i := range front {
		for r, v := range objs[i] {
			if hi[r] > lo[r] {
				scores[k] += (v - lo[r]) / (hi[r] - lo[r])
			} else {
				scores[k] += 1
			}
		}
		best = math.Max(best, scores[k])
	}
	var knees []int
	for k, i := range front {
		if scores[k] == best {
			knees = append(knees, sets[i])
		}
	}
	return knees
}

// checkExactKnee holds one instant to the oracle: at a moot instant the pick
// is the head; otherwise the picked job belongs to a pack with the best knee
// score.
func checkExactKnee(t *testing.T, ctx *PickContext) {
	t.Helper()
	got := (Pareto{}).Pick(ctx)
	moot := !slices.ContainsFunc(ctx.Window, func(j *job.Job) bool { return ctx.Cluster.CanFit(j.Demand) })
	if moot {
		if got != 0 {
			t.Fatalf("moot instant: Pick = %d, want 0 (free %v)", got, ctx.Cluster.FreeVec())
		}
		return
	}
	knees := kneeSets(ctx)
	if !slices.ContainsFunc(knees, func(set int) bool { return set&(1<<got) != 0 }) {
		demands := make([][]int, len(ctx.Window))
		for i, j := range ctx.Window {
			demands[i] = j.Demand
		}
		t.Fatalf("Pick = %d is in no knee pack %b (free %v, demands %v)", got, knees, ctx.Cluster.FreeVec(), demands)
	}
}

func TestParetoPickIsExactKnee(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	moot := 0
	for trial := 0; trial < 400; trial++ {
		ctx := randomInstant(rng, 1+rng.Intn(7), 2+trial%2)
		if !slices.ContainsFunc(ctx.Window, func(j *job.Job) bool { return ctx.Cluster.CanFit(j.Demand) }) {
			moot++
		}
		checkExactKnee(t, ctx)
	}
	if moot == 0 || moot == 400 {
		t.Fatalf("%d of 400 instants moot: the generator must cover both kinds", moot)
	}
}

func FuzzParetoPickIsExactKnee(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, w, nr uint8) {
		checkExactKnee(t, randomInstant(rand.New(rand.NewSource(seed)), 1+int(w)%7, 2+int(nr)%2))
	})
}

// Two equal jobs that do not fit together are two maximal sets with the same
// objectives: the first in walk order, the one holding window index 0, wins.
func TestParetoTieGoesToWalkOrder(t *testing.T) {
	cl := cluster.New(paretoCluster())
	window := []*job.Job{mkPct(1, 60, 30, 100), mkPct(2, 60, 30, 100)}
	if got := (Pareto{}).Pick(pickCtx(cl, window...)); got != 0 {
		t.Fatalf("Pick = %d, want 0", got)
	}
}
