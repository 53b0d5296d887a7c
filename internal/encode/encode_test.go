package encode

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
)

func sys() cluster.Config {
	return cluster.Config{Name: "e", Resources: []string{"nodes", "bb"}, Capacities: []int{8, 4}}
}

func mk(id int, submit, wall float64, nodes, bb int) *job.Job {
	return &job.Job{ID: id, Submit: submit, Runtime: wall, Walltime: wall, Demand: []int{nodes, bb}}
}

func ctxWith(cl *cluster.Cluster, now float64, window ...*job.Job) *sched.PickContext {
	return &sched.PickContext{Now: now, Window: window, Queue: window, Cluster: cl, Usage: cl.Usage()}
}

func TestStateDimMatchesPaperFormula(t *testing.T) {
	// Paper §IV-C: [4W + 2N1 + 2N2] for R=2. W=10, N1+N2=5685 -> 11410.
	c := NewConfig(10, []int{4392, 1293})
	if got := c.StateDim(); got != 4*10+2*(4392+1293) {
		t.Fatalf("StateDim = %d", got)
	}
	if c.JobSlotDim() != 4 {
		t.Fatalf("JobSlotDim = %d", c.JobSlotDim())
	}
}

func TestEncodeIdleCluster(t *testing.T) {
	cl := cluster.New(sys())
	c := NewConfig(2, sys().Capacities)
	v := c.Encode(ctxWith(cl, 0))
	if len(v) != c.StateDim() {
		t.Fatalf("len = %d, want %d", len(v), c.StateDim())
	}
	// All job slots zero.
	for i := 0; i < 2*c.JobSlotDim(); i++ {
		if v[i] != 0 {
			t.Fatalf("empty window slot has value at %d", i)
		}
	}
	// All units available: pairs (1, 0).
	units := v[2*c.JobSlotDim():]
	for i := 0; i < len(units); i += 2 {
		if units[i] != 1 || units[i+1] != 0 {
			t.Fatalf("idle unit %d encoded as (%v,%v)", i/2, units[i], units[i+1])
		}
	}
}

func TestEncodeJobSlots(t *testing.T) {
	cl := cluster.New(sys())
	c := NewConfig(2, sys().Capacities)
	c.TimeScale = 100
	j := mk(1, 0, 200, 4, 1) // half the nodes, quarter of bb, 2 time units
	v := c.Encode(ctxWith(cl, 50, j))
	// Slot 0: [4/8, 1/4, 200/100, (50-0)/100]
	want := []float64{0.5, 0.25, 2.0, 0.5}
	for i, w := range want {
		if v[i] != w {
			t.Fatalf("slot0[%d] = %v, want %v", i, v[i], w)
		}
	}
	// Slot 1 empty.
	for i := 4; i < 8; i++ {
		if v[i] != 0 {
			t.Fatalf("slot1[%d] = %v, want 0", i-4, v[i])
		}
	}
}

func TestEncodeOccupiedUnits(t *testing.T) {
	cl := cluster.New(sys())
	c := NewConfig(1, sys().Capacities)
	c.TimeScale = 100
	if err := cl.Allocate(7, []int{3, 2}, 0, 250); err != nil {
		t.Fatal(err)
	}
	v := c.Encode(ctxWith(cl, 50))
	units := v[c.JobSlotDim():]
	// Nodes: first 3 units occupied with time (250-50)/100 = 2.0.
	for u := 0; u < 3; u++ {
		if units[2*u] != 0 || units[2*u+1] != 2.0 {
			t.Fatalf("node unit %d = (%v,%v)", u, units[2*u], units[2*u+1])
		}
	}
	// Remaining 5 node units free.
	for u := 3; u < 8; u++ {
		if units[2*u] != 1 || units[2*u+1] != 0 {
			t.Fatalf("node unit %d = (%v,%v)", u, units[2*u], units[2*u+1])
		}
	}
	// BB units: 2 occupied, 2 free.
	bb := units[16:]
	if bb[0] != 0 || bb[1] != 2.0 || bb[4] != 1 {
		t.Fatalf("bb units = %v", bb[:8])
	}
}

func TestEncodeTimeClamping(t *testing.T) {
	cl := cluster.New(sys())
	c := NewConfig(1, sys().Capacities)
	c.TimeScale = 1
	c.MaxScaled = 10
	j := mk(1, 0, 1e9, 1, 0)
	v := c.Encode(ctxWith(cl, 0, j))
	if v[2] != 10 {
		t.Fatalf("walltime not clamped: %v", v[2])
	}
	// Negative remaining time (overdue allocation) clamps to zero.
	if err := cl.Allocate(9, []int{1, 0}, 0, 5); err != nil {
		t.Fatal(err)
	}
	v = c.Encode(ctxWith(cl, 50))
	units := v[c.JobSlotDim():]
	if units[1] != 0 {
		t.Fatalf("overdue unit time = %v, want 0", units[1])
	}
}

// Property: encoding always has exactly StateDim elements, values are
// finite, availability bits are 0/1, and fractions lie in [0,1].
func TestEncodeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(sys())
		now := float64(rng.Intn(1000))
		for id := 1; id <= rng.Intn(4); id++ {
			d := []int{rng.Intn(4) + 1, rng.Intn(3)}
			if cl.CanFit(d) {
				_ = cl.Allocate(id, d, now, now+float64(rng.Intn(5000)))
			}
		}
		var window []*job.Job
		for i := 0; i < rng.Intn(5); i++ {
			window = append(window, mk(100+i, now-float64(rng.Intn(100)), float64(rng.Intn(10000)+1), rng.Intn(8)+1, rng.Intn(5)))
		}
		c := NewConfig(3, sys().Capacities)
		v := c.Encode(ctxWith(cl, now, window...))
		if len(v) != c.StateDim() {
			return false
		}
		for _, x := range v {
			if x < 0 || x != x { // negative or NaN
				return false
			}
		}
		// Availability bits in the unit section are 0 or 1.
		units := v[3*c.JobSlotDim():]
		for i := 0; i < len(units); i += 2 {
			if units[i] != 0 && units[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMismatchedClusterPanics(t *testing.T) {
	cl := cluster.New(sys())
	c := NewConfig(2, []int{8}) // one resource vs cluster's two
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on resource-arity mismatch")
		}
	}()
	c.Encode(ctxWith(cl, 0))
}

// EncodeInto overwrites whatever its destination held — a longer vector of
// another instant included — with exactly Encode's vector, in place once the
// destination is large enough.
func TestEncodeIntoReusesItsDestination(t *testing.T) {
	cl := cluster.New(sys())
	c := NewConfig(3, sys().Capacities)
	busy := ctxWith(cl, 50, mk(1, 0, 7200, 4, 2), mk(2, 10, 600, 1, 0))
	if err := cl.Allocate(9, []int{5, 3}, 0, 4000); err != nil {
		t.Fatal(err)
	}
	idle := ctxWith(cluster.New(sys()), 0)
	var buf []float64
	for i, ctx := range []*sched.PickContext{busy, idle, busy} {
		prev := buf
		buf = c.EncodeInto(buf, ctx)
		if want := c.Encode(ctx); !slices.Equal(buf, want) {
			t.Fatalf("instant %d: EncodeInto = %v, Encode = %v", i, buf, want)
		}
		if i > 0 && &buf[0] != &prev[0] {
			t.Fatalf("instant %d: EncodeInto left its destination for a new array", i)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { buf = c.EncodeInto(buf, busy) }); avg != 0 {
		t.Fatalf("%v allocations per EncodeInto into a large enough destination", avg)
	}
}
