package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
)

// checkMirror fails unless the demand keys and the walltime column are the
// queue's, index for index, and nextBackfill answers like a walk over the
// jobs with the whole EASY test for the limits given, from every start up to
// a few past the end of the queue.
func checkMirror(t testing.TB, s *Simulator, scans ...limits) {
	t.Helper()
	if len(s.qKey) != len(s.queue) || len(s.qWall) != len(s.queue) {
		t.Fatalf("%d demand keys and %d walltimes for %d waiting jobs", len(s.qKey), len(s.qWall), len(s.queue))
	}
	for i, j := range s.queue {
		if j == nil || j.State != job.Queued {
			t.Fatalf("queue[%d] is not a waiting job: %+v", i, j)
		}
		if want := s.lanes.key(j.Demand); s.qKey[i] != want {
			t.Fatalf("key[%d] = %#x, job %d's demand %v packs to %#x", i, s.qKey[i], j.ID, j.Demand, want)
		}
		if math.Float64bits(s.qWall[i]) != math.Float64bits(j.Walltime) {
			t.Fatalf("wall[%d] = %v, job %d's walltime is %v", i, s.qWall[i], j.ID, j.Walltime)
		}
	}
	for _, l := range scans {
		for from := 0; from <= len(s.queue)+4; from++ {
			want := from
			for ; want < len(s.queue); want++ {
				d := s.queue[want].Demand
				if cluster.Fits(d, l.free) && (s.Now()+s.queue[want].Walltime <= l.shadow || cluster.Fits(d, l.extra)) {
					break
				}
			}
			if got := s.nextBackfill(from, l.free, l.extra, l.shadow); got != want {
				t.Fatalf("nextBackfill(%d, %v, %v, %v) at t=%v = %d, the first waiting job backfill may start is at %d",
					from, l.free, l.extra, l.shadow, s.Now(), got, want)
			}
		}
	}
}

// runQueueOps drives a simulator with a do-nothing policy from a byte
// string: submit a job and step, start the job at a queue index, or start a
// waiting job by pointer. After every operation the demand keys and the
// walltime column must mirror the queue, also after a start the cluster
// refused, and nextBackfill must answer like the walk.
func runQueueOps(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	// The first byte picks the system: two or three resources, and whether
	// the last one is wide enough for its lane to clamp.
	sys := cluster.Config{Name: "fuzz", Resources: []string{"nodes", "bb"}, Capacities: []int{12, 300}}
	if data[0]&1 != 0 {
		sys.Resources, sys.Capacities = append(sys.Resources, "bytes"), append(sys.Capacities, 1<<20+7)
	}
	if data[0]&2 != 0 {
		sys.Capacities[len(sys.Capacities)-1] = 5 << 20
	}
	s := New(sys, PolicyFunc(func(*Simulator) {}))
	nextID := 0
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		op, a, b := data[0]%3, int(data[1]), int(data[2])
		free := s.Cluster().FreeVec()
		switch {
		case op == 0:
			demand := make([]int, len(sys.Capacities))
			for r, n := range sys.Capacities {
				demand[r] = (a*(r+7) + b*(n/200+1)*131) % (n + 1)
			}
			demand[0] = 1 + a%sys.Capacities[0]
			j := &job.Job{ID: nextID, Submit: s.Now() + float64(b%3), Runtime: float64(1 + a), Walltime: float64(1 + b), Demand: demand}
			nextID++
			if err := s.Load([]*job.Job{j}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		case len(s.queue) == 0:
		default:
			i := a % len(s.queue)
			j, before := s.queue[i], len(s.queue)
			var err error
			if op == 1 {
				err = s.startAt(i)
			} else {
				err = s.StartJob(j)
			}
			if fit := cluster.Fits(j.Demand, free); fit != (err == nil) {
				t.Fatalf("start of job %d (demand %v, free %v): %v", j.ID, j.Demand, free, err)
			}
			if err != nil && (len(s.queue) != before || s.queue[i] != j) {
				t.Fatalf("a refused start changed the queue")
			}
			if err == nil && (len(s.queue) != before-1 || j.State != job.Running) {
				t.Fatalf("job %d started: %d waiting of %d, state %v", j.ID, len(s.queue), before, j.State)
			}
		}
		// Spare capacity and a shadow time from the same bytes: the shadow
		// lands on some walltimes (1+b) exactly.
		extra := make([]int, len(sys.Capacities))
		for r, n := range sys.Capacities {
			extra[r] = (a*(r+3) + b*(n/100+1)*97) % (n + 1)
		}
		shadow := s.Now() + float64(a)
		checkMirror(t, s, limits{free, extra, shadow}, limits{s.Cluster().FreeVec(), extra, shadow}, limits{extra, free, shadow})
	}
}

func TestQueueMirrorUnderRandomStartOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+3*150)
		rng.Read(data)
		runQueueOps(t, data)
	}
}

func FuzzQueueMirror(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0, 9, 0, 0, 200, 2, 1, 1, 0, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{3, 0, 11, 250, 0, 5, 77, 0, 0, 0, 2, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runQueueOps(t, data) })
}

// Planted seeds for checkMirror: over every queue length mod 4 (0 to 13
// jobs) and every start, one job backfill may start — by its walltime or by
// fitting extra — at each position, or none, among jobs that each fail one
// part of the test: too big for free in some resource, or fitting free but
// ending past the shadow time and too big for extra. Walltimes end on the
// shadow time and one ulp either side of it. With nine resources the last
// has no lane, so a job too big there passes the scan and is refused in
// full.
func TestNextBackfillOverPlantedQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	now := 1e5 + 0.37
	shadow := now + 3600.25
	wall, early := shadow-now, (shadow-now)/2
	late, just := math.Nextafter(shadow, math.Inf(1))-now, math.Nextafter(shadow, 0)-now
	for _, n := range []int{1, 2, 3, 8, 9} {
		sys := cluster.Config{Name: "planted", Resources: make([]string, n), Capacities: make([]int, n)}
		free, extra := make([]int, n), make([]int, n)
		for r := range n {
			sys.Resources[r], sys.Capacities[r] = string(rune('a'+r)), 40
			free[r], extra[r] = 39, 20
		}
		over := func(limit []int) []int {
			v := slices.Clone(limit)
			v[rng.Intn(n)]++
			return v
		}
		for size := 0; size <= 13; size++ {
			for hit := -1; hit < size; hit++ {
				for _, byExtra := range []bool{false, true} {
					s := New(sys, PolicyFunc(func(*Simulator) {}))
					jobs := make([]*job.Job, size)
					for k := range jobs {
						d, w := over(extra), late
						switch {
						case k == hit && byExtra:
							d, w = slices.Clone(extra), []float64{late, wall * 2}[rng.Intn(2)]
						case k == hit:
							d, w = slices.Clone(free), []float64{wall, just, early}[rng.Intn(3)]
						case k%2 == 0:
							d, w = over(free), early
						case k%4 == 1:
							w = wall * 2
						}
						jobs[k] = &job.Job{ID: k, Submit: now, Runtime: 1, Walltime: w, Demand: d}
					}
					if err := s.Load(jobs); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
					checkMirror(t, s, limits{free, extra, shadow})
					if got := s.nextBackfill(0, free, extra, shadow); got != hit && (hit >= 0 || got != size) {
						t.Fatalf("%d resources, %d jobs: the planted job at %d was found at %d", n, size, hit, got)
					}
				}
			}
		}
	}
}

// Whatever was started, in whatever order, removeAt hands back the other
// entries in order and leaves no pointer to the removed one in the array.
func TestRemoveAtMovesTheShorterSideAndClearsTheSlot(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for i := 0; i < n; i++ {
			all := make([]*int, n)
			for k := range all {
				all[k] = new(int)
				*all[k] = k
			}
			got := removeAt(all, i)
			if len(got) != n-1 {
				t.Fatalf("n=%d i=%d: %d entries left", n, i, len(got))
			}
			for k, p := range got {
				want := k
				if k >= i {
					want++
				}
				if *p != want {
					t.Fatalf("n=%d i=%d: entry %d is %d, want %d", n, i, k, *p, want)
				}
			}
			cleared := 0
			for _, p := range all {
				if p == nil {
					cleared++
				}
			}
			if cleared != 1 {
				t.Fatalf("n=%d i=%d: %d slots of the array cleared, want the vacated one", n, i, cleared)
			}
			if n > 1 && (&got[0] != &all[0]) != (i < n-1-i) {
				t.Fatalf("n=%d i=%d: moved the longer side", n, i)
			}
		}
	}
}

// A lost guard must prove that the demand does not fit, whatever was
// clamped or left out of the key; with nothing clamped and every resource
// in a lane the guards decide the question alone.
func TestLanesNeverRefuseADemandThatFits(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20000; trial++ {
		l := newLanes(1 + rng.Intn(12))
		exact := trial%2 == 0
		top := min(l.max, 1<<40) // one resource has the whole word
		if !exact {
			top *= 4
		}
		demand, have := make([]int, 1+rng.Intn(12)), []int(nil)
		for len(demand) < int(l.n) {
			demand = append(demand, 0)
		}
		for r := range demand {
			demand[r] = rng.Intn(top + 1)
			h := demand[r] + rng.Intn(5) - 2 // near misses and near fits
			if rng.Intn(4) == 0 {
				h = rng.Intn(top+1) - top/8
			}
			if exact {
				h = min(max(h, 0), l.max)
			}
			have = append(have, h)
		}
		floored := make([]int, len(have))
		for r, h := range have {
			floored[r] = max(h, 0)
		}
		if l.key(have) != l.key(floored) {
			t.Fatalf("lanes %+v: %v and %v pack differently; a negative limit is a limit of zero", l, have, floored)
		}
		pass := ((l.key(have)|l.guard)-l.key(demand))&l.guard == l.guard
		fits := cluster.Fits(demand, have)
		if fits && !pass {
			t.Fatalf("lanes %+v refuse demand %v, which fits %v", l, demand, have)
		}
		if exact && len(demand) == int(l.n) && pass != fits {
			t.Fatalf("lanes %+v, nothing clamped: guards say %v, demand %v fits %v: %v", l, pass, demand, have, fits)
		}
	}
}
