package job

import (
	"math/rand"
	"reflect"
	"testing"
)

// raggedJobs is a source slice that exercises every layout corner of the
// slab: nil and zero-length demands, arities from one to five in no order,
// and live simulation state that a copy must not carry over.
func raggedJobs(rng *rand.Rand, n int) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		j := &Job{
			ID: i * 3, Submit: rng.Float64() * 100, Runtime: 1 + rng.Float64()*50, Walltime: 60,
			User: rng.Intn(4), State: State(rng.Intn(3)), Start: rng.Float64(), End: rng.Float64(),
		}
		switch arity := rng.Intn(7); arity {
		case 0: // nil Demand
		case 1:
			j.Demand = []int{}
		default:
			j.Demand = make([]int, arity-1)
			for r := range j.Demand {
				j.Demand[r] = rng.Intn(100)
			}
		}
		jobs[i] = j
	}
	return jobs
}

// CloneAll is Clone job by job, field for field — non-nil empty Demand for
// a nil one included, which is what Clone's make gives — whatever the
// arities, and for the empty and nil slices too.
func TestCloneAllEqualsPerJobClone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		src := raggedJobs(rng, trial)
		want := make([]*Job, len(src))
		for i, j := range src {
			want[i] = j.Clone()
		}
		got := CloneAll(src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: CloneAll differs from per-job Clone", trial)
		}
		for i, c := range got {
			if c.State != Queued || c.Start != 0 || c.End != 0 {
				t.Fatalf("trial %d job %d: simulation state survived the copy: %+v", trial, i, c)
			}
			if c.Demand == nil || cap(c.Demand) != len(c.Demand) {
				t.Fatalf("trial %d job %d: Demand %v has cap %d; a clone's is cut to its length", trial, i, c.Demand, cap(c.Demand))
			}
		}
	}
	if got := CloneAll(nil); got == nil || len(got) != 0 {
		t.Fatalf("CloneAll(nil) = %v, want an empty slice", got)
	}
}

// The copies share one demand arena. Appending to one — what a transform
// that adds a resource column does — must reallocate that one and never
// write into the next job's first unit.
func TestCloneAllAppendNeverReachesTheNeighbour(t *testing.T) {
	src := []*Job{mkJob(1, 0, 10, 4, 2, 9), mkJob(2, 1, 10, 7, 0, 3), mkJob(3, 2, 10, 1, 1, 1)}
	clones := CloneAll(src)
	for i, c := range clones {
		c.Demand = append(c.Demand, 1000+i)
	}
	for i, c := range clones {
		want := append(append([]int{}, src[i].Demand...), 1000+i)
		if !reflect.DeepEqual(c.Demand, want) {
			t.Fatalf("clone %d: Demand %v after every clone appended, want %v", i, c.Demand, want)
		}
	}
}

// Writing any field of any clone, Demand units included, leaves the source
// and every other clone as they were.
func TestCloneAllMutationIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := raggedJobs(rng, 40)
	snapshot := make([]*Job, len(src))
	for i, j := range src {
		d := j.Demand
		if d != nil {
			d = append([]int{}, d...)
		}
		cp := *j
		cp.Demand = d
		snapshot[i] = &cp
	}
	clones, pristine := CloneAll(src), CloneAll(src)
	for victim := range clones {
		c := clones[victim]
		c.ID, c.Submit, c.Runtime, c.Walltime, c.User = -1, -1, -1, -1, -1
		c.State, c.Start, c.End = Finished, -1, -1
		for r := range c.Demand {
			c.Demand[r] = -1
		}
		if !reflect.DeepEqual(src, snapshot) {
			t.Fatalf("mutating clone %d changed the source", victim)
		}
		for i := victim + 1; i < len(clones); i++ {
			if !reflect.DeepEqual(clones[i], pristine[i]) {
				t.Fatalf("mutating clone %d changed clone %d", victim, i)
			}
		}
	}
	if !reflect.DeepEqual(pristine, CloneAll(src)) {
		t.Fatal("mutating one copy changed another copy of the same source")
	}
}

// A copy is three allocations however many jobs it holds.
func TestCloneAllAllocatesPerCallNotPerJob(t *testing.T) {
	src := raggedJobs(rand.New(rand.NewSource(24)), 500)
	var keep []*Job
	if n := testing.AllocsPerRun(10, func() { keep = CloneAll(src) }); n > 3 {
		t.Fatalf("CloneAll of %d jobs: %.0f allocations, want the two slabs and the pointer slice", len(keep), n)
	}
}
