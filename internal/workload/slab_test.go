package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/job"
)

// Apply, job.CloneAll and everything built on them cut every job's Demand
// from one shared arena. This file holds what that layout must never let
// through — a write that reaches a neighbour — and re-runs the transforms'
// copy contract on such slab-backed inputs, against the per-job loops the
// transforms used to be.

// Apply lays demands out at the system's arity with cap = len, so a caller
// that appends a column to one job reallocates that job alone. Tested on a
// three-resource system, where the unit after a job's last is the next
// job's node count.
func TestApplyAppendNeverReachesTheNeighbour(t *testing.T) {
	sys := WithPower(ThetaScaled(8))
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 86400, MeanInterarrival: 60, Seed: 51})
	pool := AssignDarshanBB(base, sys.Capacities[1], 52)
	s4, _ := ScenarioByName("S4")
	jobs := Apply(base, pool, s4, sys, 53)
	want := Apply(base, pool, s4, sys, 53)
	for i, j := range jobs {
		if len(j.Demand) != 3 || cap(j.Demand) != 3 {
			t.Fatalf("job %d: Demand len %d cap %d, want the system's arity 3 for both", i, len(j.Demand), cap(j.Demand))
		}
		j.Demand = append(j.Demand, -7)
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(j.Demand[:3], want[i].Demand) || j.Demand[3] != -7 {
			t.Fatalf("job %d: Demand %v after every job appended a column, want %v and the column", i, j.Demand, want[i].Demand)
		}
	}
}

// The power transform fills its column beside the Table III one: the node
// and burst-buffer units are exactly the two-resource Apply's, for every
// job — a power unit written one slot off would land on a node count.
func TestApplyPowerKeepsTheTwoResourceUnits(t *testing.T) {
	two := ThetaScaled(8)
	sys := WithPower(two)
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 86400, MeanInterarrival: 60, Seed: 54})
	pool := AssignDarshanBB(base, sys.Capacities[1], 55)
	for _, sc := range PowerScenarios() {
		plain := Apply(base, pool, sc.Scenario, two, 56)
		power := ApplyPower(base, pool, sc, sys, 56)
		for i, j := range power {
			if len(j.Demand) != 3 || !reflect.DeepEqual(j.Demand[:2], plain[i].Demand) {
				t.Fatalf("%s job %d: Demand %v, want %v plus a power column", sc.Name, i, j.Demand, plain[i].Demand)
			}
			if j.Demand[2] < 1 || j.Demand[2] > sys.Capacities[2] {
				t.Fatalf("%s job %d: %d power units outside [1, %d]", sc.Name, i, j.Demand[2], sys.Capacities[2])
			}
			stripped := *j
			stripped.Demand = j.Demand[:2:2]
			if !reflect.DeepEqual(&stripped, plain[i]) {
				t.Fatalf("%s job %d: the power transform changed more than the power column", sc.Name, i)
			}
		}
	}
}

// noiseWalltimesPerJob and assignZipfUsersPerJob are the transforms as they
// were before they ran on a slab copy: one Clone per job, the arithmetic
// inline. They are the reference both forms are held against.
func noiseWalltimesPerJob(jobs []*job.Job, sigma float64, seed int64) []*job.Job {
	out := make([]*job.Job, len(jobs))
	if sigma <= 0 {
		for i, j := range jobs {
			out[i] = j.Clone()
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i, j := range jobs {
		c := j.Clone()
		w := c.Walltime * math.Exp(sigma*rng.NormFloat64())
		w = math.Ceil(w/900) * 900
		if w < c.Runtime {
			w = math.Ceil(c.Runtime/900) * 900
		}
		c.Walltime = w
		out[i] = c
	}
	return out
}

func assignZipfUsersPerJob(jobs []*job.Job, users int, theta float64, seed int64) []*job.Job {
	out := make([]*job.Job, len(jobs))
	var cdf []float64
	var rng *rand.Rand
	if users > 0 {
		cdf = ZipfPMF(users, theta)
		for k := 1; k < users; k++ {
			cdf[k] += cdf[k-1]
		}
		rng = rand.New(rand.NewSource(seed))
	}
	for i, j := range jobs {
		c := j.Clone()
		if users > 0 {
			u := rng.Float64()
			rank := 0
			for rank < users-1 && cdf[rank] < u {
				rank++
			}
			c.User = rank + 1
		}
		out[i] = c
	}
	return out
}

// slabInputs returns inputs whose jobs are themselves cut from slabs: a
// scenario workload as WorkloadSpec builds it, and a CloneAll of jobs that
// carry users and simulation state.
func slabInputs(t *testing.T) map[string][]*job.Job {
	t.Helper()
	sys := ThetaScaled(16)
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 2 * 86400, MeanInterarrival: 90, Seed: 57})
	pool := AssignDarshanBB(base, sys.Capacities[1], 58)
	s4, _ := ScenarioByName("S4")
	applied := Apply(base, pool, s4, sys, 59)
	marked := dummyJobs(300)
	for i, j := range marked {
		j.User, j.State, j.Start, j.End = 1+i%5, job.Finished, 3, 4
	}
	return map[string][]*job.Job{"Apply": applied, "CloneAll": job.CloneAll(marked)}
}

// The transforms on copies of slab-backed inputs, for every parameter
// class: the input the copy was made from is not mutated; the copy becomes
// the per-job reference's output, so byte-equal to the input's clones except
// the transformed field; a disabled axis draws nothing (any seed leaves the
// plain clones).
func TestTransformsOnSlabBackedInputs(t *testing.T) {
	for name, in := range slabInputs(t) {
		before := job.CloneAll(in)
		for i, j := range in { // CloneAll resets state; keep it for the comparison
			before[i].State, before[i].Start, before[i].End = j.State, j.Start, j.End
		}
		unchanged := func(what string) {
			t.Helper()
			if !reflect.DeepEqual(in, before) {
				t.Fatalf("%s: %s mutated its input", name, what)
			}
		}
		for _, sigma := range []float64{-1, 0, 0.3, 1.5} {
			for _, seed := range []int64{7, 8} {
				want := noiseWalltimesPerJob(in, sigma, seed)
				owned := job.CloneAll(in)
				NoiseWalltimesInPlace(owned, sigma, seed)
				unchanged("NoiseWalltimesInPlace on a copy")
				if !reflect.DeepEqual(owned, want) {
					t.Fatalf("%s: NoiseWalltimesInPlace(sigma %g, seed %d) differs from the per-job loop", name, sigma, seed)
				}
				for i, j := range owned {
					j.Walltime = in[i].Walltime
				}
				if !reflect.DeepEqual(owned, job.CloneAll(in)) {
					t.Fatalf("%s: NoiseWalltimesInPlace(sigma %g) changed more than Walltime", name, sigma)
				}
				if sigma <= 0 && !reflect.DeepEqual(want, noiseWalltimesPerJob(in, sigma, seed+1000)) {
					t.Fatalf("%s: sigma %g depends on the seed", name, sigma)
				}
			}
		}
		for _, users := range []int{-3, 0, 1, 64} {
			for _, seed := range []int64{7, 8} {
				want := assignZipfUsersPerJob(in, users, 0.9, seed)
				owned := job.CloneAll(in)
				AssignZipfUsersInPlace(owned, users, 0.9, seed)
				unchanged("AssignZipfUsersInPlace on a copy")
				if !reflect.DeepEqual(owned, want) {
					t.Fatalf("%s: AssignZipfUsersInPlace(%d users, seed %d) differs from the per-job loop", name, users, seed)
				}
				if !equalExceptUser(owned, in) {
					t.Fatalf("%s: AssignZipfUsersInPlace(%d users) changed more than User", name, users)
				}
				if users <= 0 && !reflect.DeepEqual(owned, job.CloneAll(in)) {
					t.Fatalf("%s: %d users must leave plain clones", name, users)
				}
			}
		}
	}
}
