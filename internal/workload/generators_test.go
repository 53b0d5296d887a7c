package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/job"
)

// Property and metamorphic suite for the realistic-workload axes: the Zipf
// user-skew assignment, the Markov-modulated bursty arrival process, and
// the SWF trace ingestion. The metamorphic identities are byte-exact by
// design (separate rng streams, identical arithmetic), so they are asserted
// with DeepEqual, not tolerances.

func dummyJobs(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID:       i + 1,
			Submit:   float64(i) * 10,
			Runtime:  600,
			Walltime: 900,
			Demand:   []int{1 + i%7, 0},
		}
	}
	return jobs
}

// equalExceptUser strips User before comparing: the zipf axis must touch
// ownership and nothing else.
func equalExceptUser(a, b []*job.Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ca, cb := a[i].Clone(), b[i].Clone()
		ca.User, cb.User = 0, 0
		if !reflect.DeepEqual(ca, cb) {
			return false
		}
	}
	return true
}

func TestZipfPMFShape(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
		p := ZipfPMF(64, theta)
		sum := 0.0
		for k, v := range p {
			sum += v
			if k > 0 && v > p[k-1]+1e-15 {
				t.Fatalf("theta %g: pmf not non-increasing at rank %d", theta, k+1)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("theta %g: pmf sums to %g", theta, sum)
		}
	}
	uniform := ZipfPMF(64, 0)
	for k, v := range uniform {
		if math.Abs(v-1.0/64) > 1e-12 {
			t.Fatalf("theta 0 rank %d: p = %g, want uniform 1/64", k+1, v)
		}
	}
	for _, bad := range []func(){
		func() { ZipfPMF(0, 0.5) },
		func() { ZipfPMF(10, -1) },
		func() { ZipfPMF(10, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("ZipfPMF accepted invalid parameters")
				}
			}()
			bad()
		}()
	}
}

// The core distributional property: empirical user frequencies over a large
// assignment match the Zipf pmf, across the theta ladder, measured as the
// sup distance between empirical and model CDFs.
func TestZipfEmpiricalFrequenciesMatchPMF(t *testing.T) {
	const users, n = 64, 100000
	jobs := dummyJobs(n)
	for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
		out := assignZipfUsers(jobs, users, theta, 42)
		counts := make([]float64, users)
		for _, j := range out {
			if j.User < 1 || j.User > users {
				t.Fatalf("theta %g: user %d outside 1..%d", theta, j.User, users)
			}
			counts[j.User-1]++
		}
		pmf := ZipfPMF(users, theta)
		sup, empCDF, modelCDF := 0.0, 0.0, 0.0
		for k := 0; k < users; k++ {
			empCDF += counts[k] / n
			modelCDF += pmf[k]
			if d := math.Abs(empCDF - modelCDF); d > sup {
				sup = d
			}
		}
		if sup > 0.01 {
			t.Fatalf("theta %g: sup |empirical CDF - model CDF| = %g, want < 0.01", theta, sup)
		}
		if !equalExceptUser(jobs, out) {
			t.Fatalf("theta %g: assignment perturbed non-ownership fields", theta)
		}
	}
}

// Metamorphic identity: theta = 0 is exactly the uniform assignment — each
// job's owner is the same rank an independent uniform draw over the same
// stream selects (64 divides the double mantissa evenly, so the cumsum CDF
// carries no rounding at all and the two computations must agree bit for
// bit).
func TestZipfZeroMatchesUniformReference(t *testing.T) {
	const users, seed = 64, 7
	jobs := dummyJobs(10000)
	out := assignZipfUsers(jobs, users, 0, seed)
	rng := rand.New(rand.NewSource(seed))
	for i, j := range out {
		want := 1 + int(rng.Float64()*users)
		if want > users {
			want = users
		}
		if j.User != want {
			t.Fatalf("job %d: user %d, want uniform reference %d", i, j.User, want)
		}
	}
}

func TestZipfDisabledAndDeterminism(t *testing.T) {
	jobs := dummyJobs(500)
	off := assignZipfUsers(jobs, 0, 0.9, 3)
	if !reflect.DeepEqual(off, job.CloneAll(jobs)) {
		t.Fatal("users <= 0 must return plain clones")
	}
	a := assignZipfUsers(jobs, 32, 0.9, 11)
	b := assignZipfUsers(jobs, 32, 0.9, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("assignment is not deterministic for a fixed seed")
	}
	c := assignZipfUsers(jobs, 32, 0.9, 12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical assignments")
	}
	// Output is detached: mutating it must not touch the input.
	a[0].User = 999
	a[0].Submit = -1
	if jobs[0].User != 0 || jobs[0].Submit != 0 {
		t.Fatal("assignment aliases the input jobs")
	}
}

func TestBurstValidate(t *testing.T) {
	good := Burst{CalmScale: 1, BurstScale: 0.25, PEnter: 0.02, PExit: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Burst{
		{CalmScale: 0, BurstScale: 1, PEnter: 0.1, PExit: 0.1},
		{CalmScale: 1, BurstScale: -1, PEnter: 0.1, PExit: 0.1},
		{CalmScale: 1, BurstScale: 1, PEnter: -0.1, PExit: 0.1},
		{CalmScale: 1, BurstScale: 1, PEnter: 1.5, PExit: 0.1},
		{CalmScale: 1, BurstScale: 1, PEnter: 0.1, PExit: 0},
		{CalmScale: 1, BurstScale: math.NaN(), PEnter: 0.1, PExit: 0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
}

// Chain-level properties against the closed forms: long-run burst occupancy
// equals PEnter/(PEnter+PExit) and burst run lengths are geometric with
// mean 1/PExit.
func TestBurstChainStationaryOccupancyAndRunLengths(t *testing.T) {
	b := Burst{CalmScale: 1, BurstScale: 0.25, PEnter: 0.02, PExit: 0.08}
	chain := newBurstChain(b, 99)
	const steps = 200000
	inBurst := 0
	var runs []int
	run := 0
	for i := 0; i < steps; i++ {
		if chain.next() == b.BurstScale {
			inBurst++
			run++
		} else if run > 0 {
			runs = append(runs, run)
			run = 0
		}
	}
	wantOcc := b.StationaryBurstFrac()
	occ := float64(inBurst) / steps
	if math.Abs(occ-wantOcc) > 0.01 {
		t.Fatalf("burst occupancy %g, want stationary %g +-0.01", occ, wantOcc)
	}
	if len(runs) < 100 {
		t.Fatalf("only %d burst runs observed", len(runs))
	}
	meanRun := 0.0
	for _, r := range runs {
		meanRun += float64(r)
	}
	meanRun /= float64(len(runs))
	wantRun := 1 / b.PExit
	if math.Abs(meanRun-wantRun)/wantRun > 0.05 {
		t.Fatalf("mean burst run length %g, want geometric mean %g +-5%%", meanRun, wantRun)
	}
}

// Trace-level rate property: modulation changes the long-run job count by
// one over the mean gap scale (denser gaps -> proportionally more arrivals through the
// same thinning profile).
func TestBurstJobCountMatchesMeanGapScale(t *testing.T) {
	sys := ThetaScaled(32)
	cfg := GeneratorConfig{System: sys, Duration: 4 * 86400, MeanInterarrival: 60, Seed: 5}
	plain := GenerateBase(cfg)

	b := Burst{CalmScale: 1, BurstScale: 0.25, PEnter: 0.03, PExit: 0.12}
	cfg.Burst = &b
	bursty := GenerateBase(cfg)

	// The stationary expectation of the per-arrival gap scale: the factor by
	// which modulation changes the long-run mean interarrival.
	p := b.StationaryBurstFrac()
	wantRatio := 1 / ((1-p)*b.CalmScale + p*b.BurstScale)
	ratio := float64(len(bursty)) / float64(len(plain))
	if math.Abs(ratio-wantRatio)/wantRatio > 0.10 {
		t.Fatalf("bursty/plain job count ratio %g (n=%d/%d), want 1/(mean gap scale) = %g +-10%%",
			ratio, len(bursty), len(plain), wantRatio)
	}
}

// Metamorphic identity, byte-exact: a chain whose two scales are equal is
// indistinguishable from plain interarrival scaling — the chain draws from
// its own stream, and the per-arrival product computes the same double the
// premultiplied path does.
func TestBurstEqualScalesIsInterarrivalScaling(t *testing.T) {
	sys := ThetaScaled(32)
	const scale = 1.3
	modulated := GenerateBase(GeneratorConfig{
		System: sys, Duration: 2 * 86400, MeanInterarrival: 75, Seed: 21,
		Burst: &Burst{CalmScale: scale, BurstScale: scale, PEnter: 0.05, PExit: 0.1},
	})
	premultiplied := GenerateBase(GeneratorConfig{
		System: sys, Duration: 2 * 86400, MeanInterarrival: 75 * scale, Seed: 21,
	})
	if !reflect.DeepEqual(modulated, premultiplied) {
		t.Fatalf("equal-scale chain is not byte-identical to interarrival scaling (%d vs %d jobs)",
			len(modulated), len(premultiplied))
	}
}

// Metamorphic identity, byte-exact: unit scales reproduce the unmodulated
// trace exactly.
func TestBurstUnitScalesIsIdentity(t *testing.T) {
	sys := ThetaScaled(32)
	cfg := GeneratorConfig{System: sys, Duration: 2 * 86400, MeanInterarrival: 75, Seed: 33}
	plain := GenerateBase(cfg)
	cfg.Burst = &Burst{CalmScale: 1, BurstScale: 1, PEnter: 0.05, PExit: 0.1}
	if !reflect.DeepEqual(plain, GenerateBase(cfg)) {
		t.Fatal("unit-scale chain perturbed the trace")
	}
}

func TestBurstGeneratorDeterminism(t *testing.T) {
	sys := ThetaScaled(64)
	cfg := GeneratorConfig{
		System: sys, Duration: 86400, MeanInterarrival: 90, Seed: 8,
		Burst: &Burst{CalmScale: 1, BurstScale: 0.2, PEnter: 0.04, PExit: 0.1},
	}
	a, b := GenerateBase(cfg), GenerateBase(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("bursty generation is not deterministic for a fixed seed")
	}
	cfg.Seed = 9
	if reflect.DeepEqual(a, GenerateBase(cfg)) {
		t.Fatal("different seeds produced identical bursty traces")
	}
}

// The contract for NoiseWalltimesInPlace on a copy: sigma <= 0 is an exact
// identity — byte-equal clones, no aliasing, and no rng consumption (so the
// result cannot depend on the seed).
func TestNoiseWalltimesZeroSigmaIdentity(t *testing.T) {
	jobs := dummyJobs(200)
	jobs[3].Walltime = 1234.5 // off the 15-minute grid: must survive untouched
	for _, sigma := range []float64{0, -1} {
		out := noiseWalltimes(jobs, sigma, 42)
		if len(out) != len(jobs) {
			t.Fatalf("sigma %g: %d jobs out, want %d", sigma, len(out), len(jobs))
		}
		for i := range out {
			if out[i] == jobs[i] {
				t.Fatalf("sigma %g: job %d aliases the input", sigma, i)
			}
			if !reflect.DeepEqual(out[i], jobs[i].Clone()) {
				t.Fatalf("sigma %g: job %d not byte-equal to its input clone", sigma, i)
			}
		}
		other := noiseWalltimes(jobs, sigma, 4242)
		if !reflect.DeepEqual(out, other) {
			t.Fatalf("sigma %g: identity depends on the seed (rng was drawn)", sigma)
		}
	}
	// Positive sigma still perturbs (the identity is the special case, not
	// a dead code path).
	noisy := noiseWalltimes(jobs, 0.5, 42)
	if equalExceptUser(jobs, noisy) {
		t.Fatal("sigma 0.5 changed nothing")
	}
}

func TestLoadTraceBaseBuiltin(t *testing.T) {
	sys := ThetaScaled(64)
	const meanIA = 75.0
	jobs, err := LoadTraceBase("t1", sys, 1e9, meanIA) // duration beyond the trace: no truncation
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 100 {
		t.Fatalf("only %d jobs ingested", len(jobs))
	}
	again, err := LoadTraceBase("t1", sys, 1e9, meanIA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("trace ingestion is not deterministic")
	}
	users := 0
	for i, j := range jobs {
		if err := j.Validate(nil); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if j.Demand[0] < 1 || j.Demand[0] > sys.Capacities[0] {
			t.Fatalf("job %d node demand %d outside [1,%d]", i, j.Demand[0], sys.Capacities[0])
		}
		if len(j.Demand) != len(sys.Capacities) {
			t.Fatalf("job %d demand arity %d, want %d", i, len(j.Demand), len(sys.Capacities))
		}
		if j.Walltime < j.Runtime {
			t.Fatalf("job %d walltime %g below runtime %g", i, j.Walltime, j.Runtime)
		}
		if i > 0 && j.Submit < jobs[i-1].Submit {
			t.Fatalf("job %d submits out of order", i)
		}
		if j.User > 0 {
			users++
		}
	}
	if users == 0 {
		t.Fatal("trace user ids were dropped")
	}
	if jobs[0].Submit != 0 {
		t.Fatalf("arrivals not rebased: first submit %g", jobs[0].Submit)
	}
	// The gap rescale is exact when nothing is truncated.
	gap := jobs[len(jobs)-1].Submit / float64(len(jobs)-1)
	if math.Abs(gap-meanIA)/meanIA > 1e-9 {
		t.Fatalf("mean submit gap %g, want %g", gap, meanIA)
	}

	// Truncation: a short duration keeps only in-range arrivals and still
	// returns a valid prefix.
	short, err := LoadTraceBase("t1", sys, meanIA*20, meanIA)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) >= len(jobs) || len(short) == 0 {
		t.Fatalf("truncated load kept %d of %d jobs", len(short), len(jobs))
	}
	for _, j := range short {
		if j.Submit >= meanIA*20 {
			t.Fatalf("job submits at %g beyond the %g duration", j.Submit, float64(meanIA*20))
		}
	}
}

func TestLoadTraceBaseErrors(t *testing.T) {
	sys := ThetaScaled(64)
	if _, err := LoadTraceBase("no-such-trace", sys, 1e9, 75); err == nil {
		t.Fatal("unknown trace ref accepted")
	}
	if _, err := LoadTraceBase("t1", sys, 0, 75); err == nil {
		t.Fatal("a duration excluding every record must fail loudly")
	}
}

func TestTraceByName(t *testing.T) {
	tr, ok := TraceByName("t1")
	if !ok || tr.Nodes <= 0 || tr.ProcsPerNode <= 0 {
		t.Fatalf("builtin t1 missing or malformed: %+v", tr)
	}
	if _, ok := TraceByName("t9"); ok {
		t.Fatal("TraceByName resolved a nonexistent trace")
	}
}
