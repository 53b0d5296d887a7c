package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// key is an allocation's place in the ordered running set.
type key struct {
	estEnd float64
	id     int
}

// sortedRunning is the oracle the ordered running set is held against: the
// keys the test's own model holds, in map order, sorted by (EstEnd, JobID).
func sortedRunning(held map[key][]int) []key {
	out := make([]key, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].estEnd != out[j].estEnd {
			return out[i].estEnd < out[j].estEnd
		}
		return out[i].id < out[j].id
	})
	return out
}

// runClusterOps interprets data as a sequence of Allocate / Release / Reset
// calls on a cluster of 1-3 resources (few job IDs and few distinct EstEnd
// values, so live keys, misses, ties and one ID under two estimated ends are
// all common) and checks after every step that Running is the oracle's
// order, and that each call failed exactly when a plain model says it
// should: Allocate only for a live identical key or a demand that does not
// fit, Release only for a key that is not live. The cluster leaves unique
// IDs to its callers, so CheckInvariants must fail exactly when the model
// holds one ID under two keys.
func runClusterOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0])%3
	cfg := Config{Name: "ops", Resources: []string{"a", "b", "c"}[:n], Capacities: []int{16, 8, 4}[:n]}
	c := New(cfg)
	held := map[key][]int{} // the model: allocation key -> demand
	for op := data[1:]; len(op) >= 4; op = op[4:] {
		k := key{estEnd: float64(op[2]%5) * 10, id: int(op[1]) % 12}
		before := c.FreeVec()
		switch kind := op[0] % 8; {
		case kind < 5:
			demand := make([]int, n)
			for r := range demand {
				demand[r] = int(op[3]>>(2*r)) % 4 * cfg.Capacities[r] / 8
			}
			_, live := held[k]
			err := c.Allocate(k.id, demand, 0, k.estEnd)
			if want := !live && Fits(demand, before); (err == nil) != want {
				t.Fatalf("Allocate(%d, %v) until %v with free %v, live %v: %v", k.id, demand, k.estEnd, before, live, err)
			}
			if err == nil {
				held[k] = slices.Clone(demand)
				clear(demand) // the cluster must hold its own copy
			} else if !slices.Equal(c.FreeVec(), before) {
				t.Fatalf("a refused Allocate moved free from %v to %v", before, c.FreeVec())
			}
		case kind < 7:
			_, live := held[k]
			if err := c.Release(k.id, k.estEnd); (err == nil) != live {
				t.Fatalf("Release(%d, %v), live %v: %v", k.id, k.estEnd, live, err)
			}
			if !live && !slices.Equal(c.FreeVec(), before) {
				t.Fatalf("a refused Release moved free from %v to %v", before, c.FreeVec())
			}
			delete(held, k)
		default:
			c.Reset()
			clear(held)
		}
		ids := map[int]bool{}
		repeated := false
		for k := range held {
			repeated = repeated || ids[k.id]
			ids[k.id] = true
		}
		if err := c.CheckInvariants(); (err != nil) != repeated {
			t.Fatalf("CheckInvariants with an ID held twice %v: %v", repeated, err)
		}
		want := sortedRunning(held)
		if len(c.Running()) != len(want) {
			t.Fatalf("%d running, model holds %d", len(c.Running()), len(want))
		}
		for i, a := range c.Running() {
			if (key{a.EstEnd, a.JobID}) != want[i] || !slices.Equal(a.Demand, held[want[i]]) {
				t.Fatalf("Running()[%d] is job %d until %v holding %v, the model's is %v holding %v",
					i, a.JobID, a.EstEnd, a.Demand, want[i], held[want[i]])
			}
		}
	}
}

func TestRunningMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+4*200)
		rng.Read(data)
		runClusterOps(t, data)
	}
}

func FuzzClusterOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 0x15, 0, 2, 2, 0x15, 5, 1, 0, 0, 0, 1, 2, 0x3f, 7, 0, 0, 0})
	f.Add([]byte{2, 0, 3, 4, 0xff, 0, 3, 4, 0xff, 6, 3, 0, 0})
	// Job 3 until 10 and until 20, then released under each key.
	f.Add([]byte{1, 0, 3, 1, 0x01, 0, 3, 2, 0x01, 5, 3, 1, 0, 5, 3, 2, 0})
	f.Fuzz(runClusterOps)
}

// A NaN or infinite time has no place in the order; Allocate refuses it and
// changes nothing.
func TestAllocateRejectsNonFiniteTimes(t *testing.T) {
	c := New(testConfig())
	if err := c.Allocate(1, []int{10, 4}, 0, 50); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, times := range [][2]float64{{x, 100}, {0, x}} {
			if err := c.Allocate(2, []int{10, 4}, times[0], times[1]); err == nil {
				t.Fatalf("Allocate accepted now=%v estEnd=%v", times[0], times[1])
			}
		}
	}
	if c.NumRunning() != 1 || c.Free(0) != 90 || c.Free(1) != 36 {
		t.Fatalf("a refused Allocate changed the cluster: %d running, free %v", c.NumRunning(), c.FreeVec())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Release validates before it applies: an allocation that would overflow a
// resource, or whose key was changed through the Running view, is refused
// with the free vector and the running set as they were.
func TestReleaseLeavesNoPartialState(t *testing.T) {
	c := New(testConfig())
	for id := 1; id <= 3; id++ {
		if err := c.Allocate(id, []int{10, 4}, 0, float64(10*id)); err != nil {
			t.Fatal(err)
		}
	}
	a := c.Running()[1]
	a.Demand[1] = 99 // resource 0 would apply cleanly, resource 1 overflows
	if err := c.Release(a.JobID, a.EstEnd); err == nil {
		t.Fatal("overflowing release accepted")
	}
	if c.Free(0) != 70 || c.Free(1) != 28 || c.NumRunning() != 3 {
		t.Fatalf("a refused Release changed the cluster: %d running, free %v", c.NumRunning(), c.FreeVec())
	}
	a.Demand[1] = 4
	a.EstEnd = 5 // no longer where the order says it is
	if err := c.Release(a.JobID, a.EstEnd); err == nil {
		t.Fatal("release of a misplaced allocation accepted")
	}
	if c.Free(0) != 70 || c.Free(1) != 28 || c.NumRunning() != 3 {
		t.Fatalf("a refused Release changed the cluster: %d running, free %v", c.NumRunning(), c.FreeVec())
	}
	a.EstEnd = 20
	if err := c.Release(a.JobID, a.EstEnd); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A steady allocate/release cycle reuses released allocations.
func TestAllocateReleaseSteadyStateAllocatesNothing(t *testing.T) {
	c := New(testConfig())
	demand := []int{10, 4}
	for id := 0; id < 8; id++ {
		if err := c.Allocate(id, demand, 0, float64(id%3)); err != nil {
			t.Fatal(err)
		}
	}
	id := 8
	avg := testing.AllocsPerRun(200, func() {
		if err := c.Release(id-8, float64((id-8)%3)); err != nil {
			t.Fatal(err)
		}
		if err := c.Allocate(id, demand, 0, float64(id%3)); err != nil {
			t.Fatal(err)
		}
		id++
	})
	if avg != 0 {
		t.Fatalf("%v allocations per release+allocate, want 0", avg)
	}
}
