package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/job"
)

func TestThetaConfigMatchesPaperStateSize(t *testing.T) {
	sys := Theta()
	// §IV-C: 4W + 2(N1+N2) = 11410 with W=10.
	total := sys.Capacities[0] + sys.Capacities[1]
	if 4*10+2*total != 11410 {
		t.Fatalf("Theta units N1+N2 = %d; state would be %d, want 11410", total, 4*10+2*total)
	}
}

func TestThetaScaledPreservesRatio(t *testing.T) {
	sys := ThetaScaled(16)
	if sys.Capacities[0] != ThetaNodes/16 || sys.Capacities[1] != ThetaBBTB/16 {
		t.Fatalf("scaled capacities = %v", sys.Capacities)
	}
	tiny := ThetaScaled(100000) // floors kick in
	if tiny.Capacities[0] < 4 || tiny.Capacities[1] < 2 {
		t.Fatalf("scaled floors violated: %v", tiny.Capacities)
	}
}

func TestWithPowerBudgetScales(t *testing.T) {
	full := WithPower(Theta())
	if full.Capacities[2] != ThetaPowerBudgetKW {
		t.Fatalf("full budget = %d kW, want %d", full.Capacities[2], ThetaPowerBudgetKW)
	}
	half := WithPower(ThetaScaled(2))
	if math.Abs(float64(half.Capacities[2])-250) > 2 {
		t.Fatalf("half-scale budget = %d, want ~250", half.Capacities[2])
	}
	if len(full.Resources) != 3 || full.Resources[2] != "power_kw" {
		t.Fatalf("power resource missing: %v", full.Resources)
	}
}

// defaultGenerator is the fixture trace: two days at a 90 s peak
// inter-arrival, dense enough to create queueing.
func defaultGenerator(sys cluster.Config, seed int64) GeneratorConfig {
	return GeneratorConfig{System: sys, Duration: 2 * 86400, MeanInterarrival: 90, Seed: seed}
}

// noiseWalltimes and assignZipfUsers are what a caller that keeps its input
// writes: job.CloneAll, then the axis on the copy.
func noiseWalltimes(jobs []*job.Job, sigma float64, seed int64) []*job.Job {
	out := job.CloneAll(jobs)
	NoiseWalltimesInPlace(out, sigma, seed)
	return out
}

func assignZipfUsers(jobs []*job.Job, users int, theta float64, seed int64) []*job.Job {
	out := job.CloneAll(jobs)
	AssignZipfUsersInPlace(out, users, theta, seed)
	return out
}

func TestGenerateBaseValidity(t *testing.T) {
	sys := ThetaScaled(16)
	cfg := defaultGenerator(sys, 42)
	jobs := GenerateBase(cfg)
	if len(jobs) < 100 {
		t.Fatalf("only %d jobs generated over %v s", len(jobs), cfg.Duration)
	}
	prev := -1.0
	for _, j := range jobs {
		if err := j.Validate(sys.Capacities); err != nil {
			t.Fatal(err)
		}
		if j.Submit < prev {
			t.Fatal("submissions not time-ordered")
		}
		prev = j.Submit
		if j.Walltime < j.Runtime {
			t.Fatalf("job %d walltime %v < runtime %v", j.ID, j.Walltime, j.Runtime)
		}
		if j.Demand[1] != 0 {
			t.Fatal("base trace must be CPU-only")
		}
		if j.Submit >= cfg.Duration {
			t.Fatal("job submitted after trace end")
		}
	}
}

func TestGenerateBaseDeterministic(t *testing.T) {
	sys := ThetaScaled(16)
	a := GenerateBase(defaultGenerator(sys, 7))
	b := GenerateBase(defaultGenerator(sys, 7))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Submit != b[i].Submit || a[i].Demand[0] != b[i].Demand[0] || a[i].Runtime != b[i].Runtime {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := GenerateBase(defaultGenerator(sys, 8))
	same := len(a) == len(c)
	if same {
		identical := true
		for i := range a {
			if a[i].Submit != c[i].Submit {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateBaseSizeMixture(t *testing.T) {
	sys := ThetaScaled(8)
	jobs := GenerateBase(GeneratorConfig{System: sys, Duration: 6 * 86400, MeanInterarrival: 60, Seed: 3})
	small, large := 0, 0
	for _, j := range jobs {
		frac := float64(j.Demand[0]) / float64(sys.Capacities[0])
		if frac <= 0.10 {
			small++
		}
		if frac >= 0.30 {
			large++
		}
	}
	if small <= large {
		t.Fatalf("size mixture inverted: %d small vs %d large", small, large)
	}
	if large == 0 {
		t.Fatal("no large jobs at all; starvation scenarios would be untestable")
	}
}

func TestDarshanAssignmentStatistics(t *testing.T) {
	sys := ThetaScaled(4)
	jobs := GenerateBase(GeneratorConfig{System: sys, Duration: 10 * 86400, MeanInterarrival: 30, Seed: 5})
	pool := AssignDarshanBB(jobs, sys.Capacities[1], 11)
	withBB := 0
	for _, j := range jobs {
		if j.Demand[1] > 0 {
			withBB++
			if j.Demand[1] > sys.Capacities[1] {
				t.Fatal("BB request exceeds capacity")
			}
		}
	}
	frac := float64(withBB) / float64(len(jobs))
	// §IV-A: 17.18% of jobs moved >1GB and get a request.
	if frac < 0.12 || frac > 0.23 {
		t.Fatalf("BB-request fraction = %v, want ~0.17", frac)
	}
	if len(pool) != withBB {
		t.Fatalf("pool has %d entries for %d BB jobs", len(pool), withBB)
	}
	for _, tb := range pool {
		if tb < darshanMinGB/1000 || tb > darshanMaxTB {
			t.Fatalf("pool volume %v TB out of range", tb)
		}
	}
}

func TestTbToUnits(t *testing.T) {
	if got := tbToUnits(0, 100); got != 0 {
		t.Fatalf("zero TB -> %d units", got)
	}
	// Full scale: 1 TB -> 1 unit.
	if got := tbToUnits(1, ThetaBBTB); got != 1 {
		t.Fatalf("1TB at full scale = %d", got)
	}
	// Tiny request on a scaled system floors at 1 unit.
	if got := tbToUnits(0.001, 80); got != 1 {
		t.Fatalf("tiny request = %d, want 1", got)
	}
	// Over-capacity caps.
	if got := tbToUnits(1e6, 80); got != 80 {
		t.Fatalf("huge request = %d, want 80", got)
	}
}

func TestScenarioTableIII(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 5 {
		t.Fatalf("%d scenarios", len(scs))
	}
	wantProb := []float64{0.50, 0.75, 0.50, 0.75, 0.75}
	wantMin := []float64{5, 5, 20, 20, 20}
	for i, sc := range scs {
		if sc.BBProb != wantProb[i] || sc.MinTB != wantMin[i] || sc.MaxTB != 285 {
			t.Fatalf("scenario %s = %+v", sc.Name, sc)
		}
	}
	if !scs[4].HalveNodes || scs[3].HalveNodes {
		t.Fatal("only S5 halves nodes")
	}
	if _, err := ScenarioByName("S3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioByName("S99"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestApplyScenarioProperties(t *testing.T) {
	sys := ThetaScaled(8)
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 6 * 86400, MeanInterarrival: 45, Seed: 9})
	pool := AssignDarshanBB(base, sys.Capacities[1], 10)

	s2, _ := ScenarioByName("S2")
	jobs := Apply(base, pool, s2, sys, 21)
	if len(jobs) != len(base) {
		t.Fatal("job count changed")
	}
	withBB := 0
	for i, j := range jobs {
		if err := j.Validate(sys.Capacities); err != nil {
			t.Fatal(err)
		}
		if j.Demand[0] != base[i].Demand[0] {
			t.Fatal("S2 must not change node demands")
		}
		if j.Demand[1] > 0 {
			withBB++
		}
	}
	frac := float64(withBB) / float64(len(jobs))
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("S2 BB fraction = %v, want ~0.75", frac)
	}
	// Base must not have been mutated.
	bbInBase := 0
	for _, b := range base {
		if b.Demand[1] > 0 {
			bbInBase++
		}
	}
	if float64(bbInBase)/float64(len(base)) > 0.25 {
		t.Fatal("Apply mutated the base trace")
	}
}

func TestS5HalvesNodes(t *testing.T) {
	sys := ThetaScaled(8)
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 3 * 86400, MeanInterarrival: 60, Seed: 13})
	pool := AssignDarshanBB(base, sys.Capacities[1], 14)
	s5, _ := ScenarioByName("S5")
	jobs := Apply(base, pool, s5, sys, 15)
	for i := range jobs {
		want := base[i].Demand[0] / 2
		if want < 1 {
			want = 1
		}
		if jobs[i].Demand[0] != want {
			t.Fatalf("job %d nodes = %d, want %d", i, jobs[i].Demand[0], want)
		}
	}
}

func TestScenarioContentionLadder(t *testing.T) {
	// Aggregate BB demand must increase monotonically-ish across the ladder
	// S1 -> S2 and S3 -> S4 (more jobs with BB) and S3 >= S1 per job (bigger
	// requests). We check the coarse ordering the paper relies on.
	sys := ThetaScaled(8)
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 6 * 86400, MeanInterarrival: 45, Seed: 29})
	pool := AssignDarshanBB(base, sys.Capacities[1], 30)
	demand := func(name string) float64 {
		sc, _ := ScenarioByName(name)
		jobs := Apply(base, pool, sc, sys, 31)
		tot := 0.0
		for _, j := range jobs {
			tot += float64(j.Demand[1]) * j.Walltime
		}
		return tot
	}
	d1, d2, d3, d4 := demand("S1"), demand("S2"), demand("S3"), demand("S4")
	if d2 <= d1 {
		t.Fatalf("S2 (%v) should exceed S1 (%v)", d2, d1)
	}
	if d4 <= d3 {
		t.Fatalf("S4 (%v) should exceed S3 (%v)", d4, d3)
	}
	if d4 <= d1 {
		t.Fatalf("S4 (%v) should exceed S1 (%v)", d4, d1)
	}
}

func TestPowerScenarios(t *testing.T) {
	scs := PowerScenarios()
	if len(scs) != 5 || scs[0].Name != "S6" || scs[4].Name != "S10" {
		t.Fatalf("power scenarios: %+v", scs)
	}
	sys := WithPower(ThetaScaled(8))
	base := GenerateBase(GeneratorConfig{System: sys, Duration: 3 * 86400, MeanInterarrival: 60, Seed: 17})
	pool := AssignDarshanBB(base, sys.Capacities[1], 18)
	jobs := ApplyPower(base, pool, scs[0], sys, 19)
	for _, j := range jobs {
		if len(j.Demand) != 3 {
			t.Fatal("power demand missing")
		}
		if err := j.Validate(sys.Capacities); err != nil {
			t.Fatal(err)
		}
		if j.Demand[2] < 1 {
			t.Fatal("running jobs must draw power")
		}
	}
	// Larger jobs must draw more power on average.
	var smallSum, smallN, largeSum, largeN float64
	for _, j := range jobs {
		if j.Demand[0] <= 4 {
			smallSum += float64(j.Demand[2])
			smallN++
		} else if j.Demand[0] >= 64 {
			largeSum += float64(j.Demand[2])
			largeN++
		}
	}
	if smallN > 0 && largeN > 0 && largeSum/largeN <= smallSum/smallN {
		t.Fatal("power draw not correlated with job size")
	}
}

func TestSampledSetsPoissonArrivals(t *testing.T) {
	sys := ThetaScaled(16)
	base := GenerateBase(defaultGenerator(sys, 23))
	sets := SampledSets(base, 3, 50, 24)
	if len(sets) != 3 {
		t.Fatalf("%d sets", len(sets))
	}
	for _, set := range sets {
		if len(set) != 50 {
			t.Fatalf("set size %d", len(set))
		}
		prev := -1.0
		for _, j := range set {
			if j.Submit < prev {
				t.Fatal("sampled arrivals out of order")
			}
			prev = j.Submit
		}
	}
	// Mean inter-arrival should be near the trace average.
	mean := meanInterarrival(base)
	got := (sets[0][49].Submit - sets[0][0].Submit) / 49
	if got < mean/3 || got > mean*3 {
		t.Fatalf("sampled inter-arrival %v far from trace mean %v", got, mean)
	}
}

func TestRealSetsPreserveSpacing(t *testing.T) {
	sys := ThetaScaled(16)
	base := GenerateBase(defaultGenerator(sys, 25))
	sets := RealSets(base, 2, 40)
	for _, set := range sets {
		if len(set) != 40 {
			t.Fatalf("set size %d", len(set))
		}
		if set[0].Submit != 0 {
			t.Fatalf("first job at %v, want 0", set[0].Submit)
		}
	}
	// First set's relative spacing must match the trace.
	for i := 1; i < 10; i++ {
		want := base[i].Submit - base[0].Submit
		if math.Abs(sets[0][i].Submit-want) > 1e-9 {
			t.Fatalf("spacing altered: %v vs %v", sets[0][i].Submit, want)
		}
	}
}

func TestSyntheticSets(t *testing.T) {
	sys := ThetaScaled(16)
	s1, _ := ScenarioByName("S1")
	sets := SyntheticSets(sys, s1, 2, 30, 60, 27, nil)
	for _, set := range sets {
		if len(set) == 0 || len(set) > 30 {
			t.Fatalf("synthetic set size %d", len(set))
		}
		for _, j := range set {
			if err := j.Validate(sys.Capacities); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSplitFractions(t *testing.T) {
	jobs := make([]*job.Job, 100)
	for i := range jobs {
		jobs[i] = &job.Job{ID: i, Submit: float64(i), Runtime: 1, Walltime: 1, Demand: []int{1}}
	}
	train, valid, test := Split(jobs, 0.7, 0.1)
	if len(train) != 70 || len(valid) != 10 || len(test) != 20 {
		t.Fatalf("split = %d/%d/%d", len(train), len(valid), len(test))
	}
}

func TestPaperSplitByTime(t *testing.T) {
	jobs := make([]*job.Job, 1000)
	for i := range jobs {
		jobs[i] = &job.Job{ID: i, Submit: float64(i), Runtime: 1, Walltime: 1, Demand: []int{1}}
	}
	train, valid, test := PaperSplit(jobs)
	if len(train)+len(valid)+len(test) != 1000 {
		t.Fatal("split lost jobs")
	}
	// 3.5/5 = 70%, 0.5/5 = 10%, remainder 20%.
	if math.Abs(float64(len(train))-700) > 10 || math.Abs(float64(len(valid))-100) > 10 {
		t.Fatalf("paper split = %d/%d/%d", len(train), len(valid), len(test))
	}
	if len(PaperSplitEmptyGuard()) != 0 {
		t.Fatal("guard failed")
	}
}

// PaperSplitEmptyGuard exercises the degenerate-input path.
func PaperSplitEmptyGuard() []*job.Job {
	train, _, _ := PaperSplit(nil)
	return train
}

// Property: Apply never produces invalid jobs for any seed.
func TestApplyValidityProperty(t *testing.T) {
	sys := ThetaScaled(16)
	base := GenerateBase(defaultGenerator(sys, 33))
	pool := AssignDarshanBB(base, sys.Capacities[1], 34)
	f := func(seed int64, which uint8) bool {
		sc := Scenarios()[int(which)%5]
		jobs := Apply(base, pool, sc, sys, seed)
		for _, j := range jobs {
			if err := j.Validate(sys.Capacities); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseWalltimes(t *testing.T) {
	sys := ThetaScaled(32)
	base := GenerateBase(defaultGenerator(sys, 41))
	if len(base) == 0 {
		t.Fatal("empty base trace")
	}

	// sigma <= 0 is the identity.
	if got := noiseWalltimes(base, 0, 7); !reflect.DeepEqual(got, base) {
		t.Fatal("sigma=0 is not the identity")
	}

	noised := noiseWalltimes(base, 0.5, 7)
	if len(noised) != len(base) {
		t.Fatalf("%d jobs out, want %d", len(noised), len(base))
	}
	changed := 0
	for i, j := range noised {
		b := base[i]
		if j == b {
			t.Fatal("the copy aliases an input job instead of a clone")
		}
		if j.Submit != b.Submit || j.Runtime != b.Runtime || !reflect.DeepEqual(j.Demand, b.Demand) {
			t.Fatalf("job %d: noise touched a non-walltime field", i)
		}
		if j.Walltime < j.Runtime {
			t.Fatalf("job %d: noised walltime %v underruns runtime %v", i, j.Walltime, j.Runtime)
		}
		if w := j.Walltime; w != math.Ceil(w/900)*900 {
			t.Fatalf("job %d: walltime %v off the 15-minute grid", i, w)
		}
		if j.Walltime != b.Walltime {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("sigma=0.5 changed no walltime at all")
	}

	// Determinism: same seed, same output; different seed, different noise.
	again := noiseWalltimes(base, 0.5, 7)
	if !jobsEqual(noised, again) {
		t.Fatal("NoiseWalltimesInPlace is not deterministic for a fixed seed")
	}
	other := noiseWalltimes(base, 0.5, 8)
	if jobsEqual(noised, other) {
		t.Fatal("different seeds produced identical noise")
	}
}

func jobsEqual(a, b []*job.Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Walltime != b[i].Walltime || a[i].Submit != b[i].Submit {
			return false
		}
	}
	return true
}

func TestWithPowerBudget(t *testing.T) {
	sys := ThetaScaled(16)
	def := WithPower(sys)
	same := WithPowerBudget(sys, ThetaPowerBudgetKW)
	if !reflect.DeepEqual(def, same) {
		t.Fatalf("WithPowerBudget(500) != WithPower: %+v vs %+v", same, def)
	}
	tight := WithPowerBudget(sys, 250)
	if tight.Capacities[2] >= def.Capacities[2] {
		t.Fatalf("tighter budget did not shrink capacity: %d vs %d", tight.Capacities[2], def.Capacities[2])
	}

	// A tighter budget makes the same physical draws a larger fraction of
	// capacity: power demand units stay put while capacity shrinks.
	base := GenerateBase(defaultGenerator(sys, 51))
	pool := AssignDarshanBB(base, sys.Capacities[1], 52)
	psc := PowerScenarios()[0]
	defJobs := ApplyPowerBudget(base, pool, psc, def, ThetaPowerBudgetKW, 9)
	tightJobs := ApplyPowerBudget(base, pool, psc, tight, 250, 9)
	for i := range defJobs {
		if tightJobs[i].Demand[2] < defJobs[i].Demand[2]/2-1 {
			t.Fatalf("job %d: tight-budget demand %d collapsed vs default %d", i, tightJobs[i].Demand[2], defJobs[i].Demand[2])
		}
	}
	legacy := ApplyPower(base, pool, psc, def, 9)
	if !reflect.DeepEqual(defJobs, legacy) {
		t.Fatal("ApplyPowerBudget(500) differs from ApplyPower")
	}
}
