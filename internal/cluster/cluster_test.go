package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Name: "test", Resources: []string{"nodes", "bb"}, Capacities: []int{100, 40}}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "empty"},
		{Name: "arity", Resources: []string{"a"}, Capacities: []int{1, 2}},
		{Name: "zero", Resources: []string{"a"}, Capacities: []int{0}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("config %q should be invalid", bad[i].Name)
		}
	}
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAllocateRelease(t *testing.T) {
	c := New(testConfig())
	if err := c.Allocate(1, []int{60, 10}, 0, 100); err != nil {
		t.Fatal(err)
	}
	if c.Free(0) != 40 || c.Free(1) != 30 {
		t.Fatalf("free = %d,%d", c.Free(0), c.Free(1))
	}
	u := c.Usage()
	if u[0] != 0.6 || u[1] != 0.25 {
		t.Fatalf("usage = %v", u)
	}
	// A second allocation under a live key must fail.
	if err := c.Allocate(1, []int{1, 0}, 0, 100); err == nil {
		t.Fatal("duplicate allocation accepted")
	}
	// Oversubscription must fail.
	if err := c.Allocate(2, []int{50, 0}, 0, 10); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if err := c.Release(1, 10); err == nil {
		t.Fatal("release under another estimated end accepted")
	}
	if err := c.Release(1, 100); err != nil {
		t.Fatal(err)
	}
	if c.Free(0) != 100 || c.Free(1) != 40 {
		t.Fatal("release did not restore resources")
	}
	if err := c.Release(1, 100); err == nil {
		t.Fatal("double release accepted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateDemandCopied(t *testing.T) {
	c := New(testConfig())
	d := []int{10, 5}
	if err := c.Allocate(1, d, 0, 50); err != nil {
		t.Fatal(err)
	}
	d[0] = 999 // caller mutates its slice; cluster must be unaffected
	if err := c.Release(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCanFit(t *testing.T) {
	c := New(testConfig())
	if !c.CanFit([]int{100, 40}) {
		t.Fatal("full-capacity demand should fit on idle cluster")
	}
	if c.CanFit([]int{101, 0}) {
		t.Fatal("over-capacity demand fits")
	}
	if c.CanFit([]int{1}) {
		t.Fatal("wrong-arity demand fits")
	}
}

func TestRunningSorted(t *testing.T) {
	c := New(testConfig())
	_ = c.Allocate(3, []int{1, 0}, 0, 300)
	_ = c.Allocate(1, []int{1, 0}, 0, 100)
	_ = c.Allocate(2, []int{1, 0}, 0, 100)
	run := c.Running()
	if run[0].JobID != 1 || run[1].JobID != 2 || run[2].JobID != 3 {
		t.Fatalf("running order: %d,%d,%d", run[0].JobID, run[1].JobID, run[2].JobID)
	}
}

func TestEarliestFit(t *testing.T) {
	c := New(testConfig())
	_ = c.Allocate(1, []int{80, 0}, 0, 100)
	_ = c.Allocate(2, []int{15, 30}, 0, 200)

	// Fits now.
	at, free := c.EarliestFit([]int{5, 10}, 10, nil)
	if at != 10 || free[0] != 5 {
		t.Fatalf("EarliestFit now: at=%v free=%v", at, free)
	}
	// Needs job 1's release.
	at, free = c.EarliestFit([]int{50, 0}, 10, nil)
	if at != 100 {
		t.Fatalf("EarliestFit after j1: at=%v", at)
	}
	if free[0] != 85 {
		t.Fatalf("free at shadow = %v", free)
	}
	// Needs both releases.
	at, _ = c.EarliestFit([]int{90, 35}, 10, nil)
	if at != 200 {
		t.Fatalf("EarliestFit after j2: at=%v", at)
	}
	// Impossible demand.
	at, _ = c.EarliestFit([]int{101, 0}, 10, nil)
	if at != -1 {
		t.Fatalf("impossible demand: at=%v", at)
	}
}

func TestEarliestFitClampsToNow(t *testing.T) {
	c := New(testConfig())
	_ = c.Allocate(1, []int{100, 0}, 0, 50)
	// Asking at now=80 (> estEnd 50): release already overdue, so earliest is now.
	at, _ := c.EarliestFit([]int{10, 0}, 80, nil)
	if at != 80 {
		t.Fatalf("EarliestFit should clamp to now, got %v", at)
	}
}

func TestReset(t *testing.T) {
	c := New(testConfig())
	_ = c.Allocate(1, []int{10, 10}, 0, 10)
	c.Reset()
	if c.Free(0) != 100 || c.NumRunning() != 0 {
		t.Fatal("Reset did not restore idle state")
	}
}

// Version moves on every call that changes the cluster and on no other.
func TestVersionCountsMutations(t *testing.T) {
	c := New(testConfig())
	steps := []struct {
		name   string
		mutate func() error
		moves  bool
	}{
		{"allocate", func() error { return c.Allocate(1, []int{10, 4}, 0, 50) }, true},
		{"allocate a live key", func() error { return c.Allocate(1, []int{1, 0}, 0, 50) }, false},
		{"allocate past free", func() error { return c.Allocate(2, []int{91, 0}, 0, 50) }, false},
		{"release another key", func() error { return c.Release(1, 60) }, false},
		{"look ahead", func() error { c.EarliestFit([]int{100, 0}, 10, nil); return nil }, false},
		{"release", func() error { return c.Release(1, 50) }, true},
		{"reset", func() error { c.Reset(); return nil }, true},
	}
	for _, st := range steps {
		before := c.Version()
		_ = st.mutate()
		if moved := c.Version() != before; moved != st.moves {
			t.Fatalf("%s: version %d -> %d, want moved=%v", st.name, before, c.Version(), st.moves)
		}
	}
}

// Property: any sequence of feasible allocations and releases conserves
// resources exactly.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig())
		type key struct {
			id     int
			estEnd float64
		}
		live := []key{}
		nextID := 1
		ops := int(opsRaw)%100 + 10
		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.6 {
				d := []int{rng.Intn(40) + 1, rng.Intn(20)}
				if c.CanFit(d) {
					estEnd := float64(i + rng.Intn(100) + 1)
					if err := c.Allocate(nextID, d, float64(i), estEnd); err != nil {
						return false
					}
					live = append(live, key{nextID, estEnd})
					nextID++
				}
			} else if len(live) > 0 {
				k := rng.Intn(len(live))
				if err := c.Release(live[k].id, live[k].estEnd); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			}
			if err := c.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: EarliestFit never returns a time earlier than now, and the
// reported free vector admits the demand.
func TestEarliestFitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig())
		for id := 1; id <= 6; id++ {
			d := []int{rng.Intn(30) + 1, rng.Intn(15)}
			if c.CanFit(d) {
				_ = c.Allocate(id, d, 0, float64(rng.Intn(500)+1))
			}
		}
		demand := []int{rng.Intn(100) + 1, rng.Intn(40)}
		now := float64(rng.Intn(100))
		at, free := c.EarliestFit(demand, now, nil)
		if at < 0 {
			return demand[0] > 100 || demand[1] > 40
		}
		if at < now {
			return false
		}
		for r, d := range demand {
			if d > free[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceIndex(t *testing.T) {
	cfg := Config{
		Name:       "t",
		Resources:  []string{"nodes", "bb_tb", "power_kw"},
		Capacities: []int{4, 2, 2},
	}
	for i, name := range cfg.Resources {
		if got := cfg.ResourceIndex(name); got != i {
			t.Fatalf("ResourceIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if got := cfg.ResourceIndex("gpu"); got != -1 {
		t.Fatalf("ResourceIndex(gpu) = %d, want -1", got)
	}
}
