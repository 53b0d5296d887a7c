package sched

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// The differential: one trace through the reference scheduler
// (reference_test.go) and through sim plus WindowPolicy, under FCFS or under
// a scripted window picker, must give every job exactly the same start time.

// scripted returns the same scripted choice sequence twice, once for each
// side: the k-th pick is script[k] modulo the window. An empty script is
// FCFS. The product side still draws its entry at a moot instant (no waiting
// job fits: PickContext.Startable) but answers the next window index
// instead, which must not move a start time; it counts those instants in
// *moot. At every product-side pick, Startable must answer what a loop over
// the queue with CanFit answers.
func scripted(t testing.TB, script []byte, moot *int) (refPicker, Picker) {
	next := func() func(n int) int {
		k := 0
		return func(n int) int {
			if len(script) == 0 {
				return 0
			}
			k++
			return int(script[(k-1)%len(script)]) % n
		}
	}
	ref, prod := next(), next()
	return func(_ float64, window []*job.Job) int { return ref(len(window)) },
		PickerFunc(func(ctx *PickContext) int {
			k, startable, fits := prod(len(ctx.Window)), ctx.Startable(), false
			for _, j := range ctx.Queue {
				fits = fits || ctx.Cluster.CanFit(j.Demand)
			}
			if startable != fits {
				t.Fatalf("t=%v: Startable() = %v, a job of the queue fits free: %v", ctx.Now, startable, fits)
			}
			if !startable {
				*moot++
				return (k + 1) % len(ctx.Window)
			}
			return k
		})
}

// diffReference runs both sides and fails on the first job whose start
// times differ. It returns how many jobs the reference backfilled and at how
// many instants the product side's pick was moot.
func diffReference(t *testing.T, sys cluster.Config, trace []*job.Job, w int, script []byte) (backfilled, moot int) {
	t.Helper()
	refPick, pick := scripted(t, script, &moot)
	want, backfilled := referenceStarts(sys.Capacities, trace, w, refPick)
	s := sim.New(sys, NewWindowPolicy(pick, w))
	jobs := job.CloneAll(trace)
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if got, ok := want[j.ID]; !ok || j.Start != got {
			t.Fatalf("window %d, script %x: job %d starts at %v in the simulator, %v (%v) in the reference\ntrace: %s",
				w, script, j.ID, j.Start, got, ok, traceString(trace))
		}
	}
	return backfilled, moot
}

func traceString(trace []*job.Job) string {
	out := ""
	for _, j := range trace {
		out += fmt.Sprintf("\n  {ID: %d, Submit: %v, Runtime: %v, Walltime: %v, Demand: %v}", j.ID, j.Submit, j.Runtime, j.Walltime, j.Demand)
	}
	return out
}

// randomTrace draws 150 jobs on sys: submits in bursts on a 20 s grid and
// runtimes on a 50 s grid, so many instants have several submits, or
// finishes and submits together, and walltimes at one of the ratios
// walltimeOver to the runtime.
func randomTrace(rng *rand.Rand, sys cluster.Config, walltimeOver []float64) []*job.Job {
	trace := make([]*job.Job, 150)
	at := 0.0
	for i := range trace {
		at += float64(rng.Intn(4)) * 20
		run := float64(50 * (1 + rng.Intn(8)))
		demand := make([]int, len(sys.Capacities))
		for r, n := range sys.Capacities {
			demand[r] = rng.Intn(n*3/4 + 1)
		}
		demand[0]++
		trace[i] = &job.Job{ID: i, Submit: at, Runtime: run, Demand: demand,
			Walltime: run * walltimeOver[rng.Intn(len(walltimeOver))]}
	}
	return trace
}

// Random traces on one to four resources, with walltimes below, at and above
// the runtime and submits and runtimes on a coarse grid (many instants where
// jobs finish and arrive together), under FCFS and a scripted picker, each
// answering otherwise at moot instants.
func TestReferenceScheduleMatchesSimulator(t *testing.T) {
	systems := []cluster.Config{
		{Name: "r1", Resources: []string{"nodes"}, Capacities: []int{12}},
		cfg(),
		{Name: "r3", Resources: []string{"nodes", "bb", "power_kw"}, Capacities: []int{16, 8, 40}},
		{Name: "r4", Resources: []string{"nodes", "bb", "power_kw", "gpu"}, Capacities: []int{10, 6, 20, 4}},
	}
	for _, sys := range systems {
		for _, picker := range []string{"fcfs", "scripted"} {
			t.Run(sys.Name+"/"+picker, func(t *testing.T) {
				backfilled, moot := 0, 0
				for seed := int64(1); seed <= 40; seed++ {
					rng := rand.New(rand.NewSource(seed))
					trace := randomTrace(rng, sys, []float64{0.5, 1, 1.5, 3})
					var script []byte
					if picker == "scripted" {
						script = make([]byte, 1+rng.Intn(32))
						rng.Read(script)
					}
					b, m := diffReference(t, sys, trace, 1+rng.Intn(10), script)
					backfilled, moot = backfilled+b, moot+m
				}
				// The differential must not pass by never backfilling, or by
				// never meeting a moot instant.
				t.Logf("%d backfilled starts, %d moot picks", backfilled, moot)
				if backfilled < 200 || moot < 200 {
					t.Fatalf("only %d backfilled starts and %d moot picks over 40 traces", backfilled, moot)
				}
			})
		}
	}
}

// fuzzTrace decodes data into a system of one to four resources, a window
// size, a picker script and at most 64 jobs on a 10-second grid, three bytes
// a job: submit step, runtime and walltime (independent, so above, below
// and equal), then a nibble of demand per resource.
func fuzzTrace(data []byte) (sys cluster.Config, w int, script []byte, trace []*job.Job) {
	if len(data) < 3 {
		return sys, 0, nil, nil
	}
	n := 1 + int(data[0])%4
	sys = cluster.Config{Name: "fuzz"}
	for r := 0; r < n; r++ {
		sys.Resources = append(sys.Resources, "r"+strconv.Itoa(r))
		sys.Capacities = append(sys.Capacities, 2+int(data[1]>>(2*r))%4*5)
	}
	w = 1 + int(data[2])%12
	if data[2]&0x80 != 0 {
		script = data
	}
	at := 0.0
	for body := data[3:]; len(body) >= 3 && len(trace) < 64; body = body[3:] {
		b := body[0]
		at += float64(b&3) * 10
		j := &job.Job{ID: len(trace), Submit: at, Runtime: float64(1+(b>>2)&7) * 10,
			Walltime: float64(1+(b>>5)&7) * 10, Demand: make([]int, n)}
		for r := range j.Demand {
			nib := int(body[1+r/2]>>(4*(r%2))) & 15
			j.Demand[r] = nib % (sys.Capacities[r] + 1)
		}
		j.Demand[0] = 1 + j.Demand[0]%sys.Capacities[0]
		trace = append(trace, j)
	}
	return sys, w, script, trace
}

func FuzzReferenceSchedule(f *testing.F) {
	// Two resources of 17, a scripted window of 12: two jobs end at t=20 as
	// two more arrive.
	f.Add([]byte{1, 0xff, 0x83, 0x24, 0x24, 0, 0x24, 0x24, 0, 0x26, 0x24, 0, 0x24, 0x24, 0})
	// One resource of 7 under FCFS: a whole-machine job outlives its
	// walltime, so the next whole-machine job's shadow time is now.
	f.Add([]byte{0, 1, 0x04, 0x1c, 0x06, 0, 0x01, 0x06, 0, 0x01, 0x00, 0})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		data := make([]byte, 3+3*(8+rng.Intn(57)))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, w, script, trace := fuzzTrace(data)
		if len(trace) == 0 {
			return
		}
		diffReference(t, sys, trace, w, script)
	})
}

// The reference shares no code with the product: its file imports job and
// the standard library only.
func TestReferenceImportsOnlyJob(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "reference_test.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "repro/internal/job" && strings.HasPrefix(path, "repro/") {
			t.Errorf("reference_test.go imports %s", path)
		}
	}
}
