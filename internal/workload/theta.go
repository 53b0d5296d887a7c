package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/job"
)

// Full-scale Theta constants. The burst-buffer unit count is
// reverse-engineered from the paper's reported state-vector size
// (4W + 2(N1+N2) = 11410 with W=10 and N1=4392 gives N2=1293, i.e. a
// ~1.26-1.29 PB shared burst buffer in 1 TB units).
const (
	ThetaNodes = 4392
	ThetaBBTB  = 1293
	// ThetaPowerBudgetKW is the §V-E system power budget (500 kW).
	ThetaPowerBudgetKW = 500
)

// Theta returns the full-scale two-resource Theta configuration.
func Theta() cluster.Config {
	return cluster.Config{
		Name:       "theta",
		Resources:  []string{"nodes", "bb_tb"},
		Capacities: []int{ThetaNodes, ThetaBBTB},
	}
}

// ThetaScaled returns a 1/div replica of Theta. Demands produced by this
// package are fractions of capacity, so contention is preserved.
func ThetaScaled(div int) cluster.Config {
	if div <= 0 {
		div = 1
	}
	return cluster.Config{
		Name:       fmt.Sprintf("theta/%d", div),
		Resources:  []string{"nodes", "bb_tb"},
		Capacities: []int{maxInt(4, ThetaNodes/div), maxInt(2, ThetaBBTB/div)},
	}
}

// WithPower extends a two-resource configuration with the §V-E power
// resource (1 kW units). The budget scales with the node count so the
// contention ratio matches the full machine's 500 kW.
func WithPower(sys cluster.Config) cluster.Config {
	return WithPowerBudget(sys, ThetaPowerBudgetKW)
}

// WithPowerBudget is WithPower with an explicit full-machine budget in kW
// (scenario specs may tighten or relax the paper's 500 kW).
func WithPowerBudget(sys cluster.Config, budgetKW int) cluster.Config {
	budget := maxInt(2, int(math.Round(float64(budgetKW)*float64(sys.Capacities[0])/float64(ThetaNodes))))
	out := cluster.Config{
		Name:       sys.Name + "+power",
		Resources:  append(append([]string{}, sys.Resources...), "power_kw"),
		Capacities: append(append([]int{}, sys.Capacities...), budget),
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// GeneratorConfig controls base-trace synthesis.
type GeneratorConfig struct {
	// System is the target machine (node capacity sets job-size scaling).
	System cluster.Config
	// Duration is the trace length in seconds (the paper uses five months).
	Duration float64
	// MeanInterarrival is the average seconds between submissions at the
	// daily peak; diurnal/weekly modulation thins it.
	MeanInterarrival float64
	// Seed fixes the generator.
	Seed int64
	// Burst, when non-nil, modulates MeanInterarrival with a two-state
	// calm/burst Markov chain advanced once per arrival (see burst.go).
	// The chain draws from its own Seed-derived stream, so every non-gap
	// property of the trace is identical to the unmodulated run.
	Burst *Burst
}

// Job-size mixture: classes as fractions of the machine, loosely matching
// leadership-class logs (many small/debug jobs, a heavy mid-range, rare
// near-full-machine runs).
var sizeClasses = []struct {
	prob     float64
	lo, hi   float64 // fraction of machine nodes
	pow2Bias float64 // probability of rounding to the nearest power of two
}{
	{0.35, 0.001, 0.02, 0.8},
	{0.30, 0.02, 0.08, 0.6},
	{0.20, 0.08, 0.25, 0.4},
	{0.10, 0.25, 0.50, 0.3},
	{0.05, 0.50, 1.00, 0.2},
}

// GenerateBase synthesizes a Theta-like CPU-only trace: jobs have node
// demands and zero demand for every other configured resource (burst buffer
// is added by the Table III scenarios; power by the §V-E case study).
func GenerateBase(cfg GeneratorConfig) []*job.Job {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := cfg.System.Capacities[0]
	resources := len(cfg.System.Capacities)

	var chain *burstChain
	if cfg.Burst != nil {
		chain = newBurstChain(*cfg.Burst, cfg.Seed)
	}
	var jobs []*job.Job
	id := 1
	t := 0.0
	for {
		mean := cfg.MeanInterarrival
		if chain != nil {
			// Computed per arrival so that equal calm/burst scales yield
			// the exact double the premultiplied (ia-axis) path computes —
			// the byte-identity the generator suite pins.
			mean = cfg.MeanInterarrival * chain.next()
		}
		t += nextInterarrival(rng, mean, t)
		if t >= cfg.Duration {
			break
		}
		n := sampleNodes(rng, nodes)
		runtime := sampleRuntime(rng)
		walltime := sampleWalltime(rng, runtime)
		demand := make([]int, resources)
		demand[0] = n
		jobs = append(jobs, &job.Job{
			ID:       id,
			Submit:   math.Round(t*1000) / 1000,
			Runtime:  runtime,
			Walltime: walltime,
			Demand:   demand,
		})
		id++
	}
	return jobs
}

// nextInterarrival draws an exponential gap thinned by the diurnal and
// weekly activity profile at time t.
func nextInterarrival(rng *rand.Rand, peakMean, t float64) float64 {
	for {
		gap := rng.ExpFloat64() * peakMean
		t += gap
		if rng.Float64() < activity(t) {
			return gap
		}
	}
}

// activity returns the relative submission rate in (0,1]: a Gaussian bump
// peaking mid-afternoon plus a night floor, damped on weekends.
func activity(t float64) float64 {
	hour := math.Mod(t/3600, 24)
	day := int(math.Mod(t/86400, 7)) // day 0 = Monday by convention
	diurnal := 0.35 + 0.65*math.Exp(-(hour-14)*(hour-14)/18)
	weekly := 1.0
	if day >= 5 {
		weekly = 0.55
	}
	return diurnal * weekly
}

func sampleNodes(rng *rand.Rand, machineNodes int) int {
	x := rng.Float64()
	for _, c := range sizeClasses {
		if x < c.prob {
			frac := c.lo * math.Exp(rng.Float64()*math.Log(c.hi/c.lo))
			n := int(math.Round(frac * float64(machineNodes)))
			if n < 1 {
				n = 1
			}
			if n > machineNodes {
				n = machineNodes
			}
			if rng.Float64() < c.pow2Bias {
				n = nearestPow2(n, machineNodes)
			}
			return n
		}
		x -= c.prob
	}
	return 1
}

func nearestPow2(n, cap int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	// Choose the closer of p and 2p (bounded by the machine).
	if 2*p <= cap && (2*p-n) < (n-p) {
		p *= 2
	}
	if p < 1 {
		p = 1
	}
	return p
}

// sampleRuntime draws a lognormal runtime with a one-hour median, clamped to
// [1 min, 12 h] — the span §III-C calls "seconds to days" compressed to keep
// experiment wall-clock practical while preserving the heavy tail.
func sampleRuntime(rng *rand.Rand) float64 {
	r := math.Exp(math.Log(3600) + rng.NormFloat64()*1.1)
	if r < 60 {
		r = 60
	}
	if r > 43200 {
		r = 43200
	}
	return math.Round(r)
}

// sampleWalltime overestimates the runtime by 10-200% and rounds up to the
// 15-minute grid users actually request, capped at 24 h.
func sampleWalltime(rng *rand.Rand, runtime float64) float64 {
	w := runtime * (1.1 + 1.9*rng.Float64())
	w = math.Ceil(w/900) * 900
	if w < runtime {
		w = runtime
	}
	if w > 86400 {
		w = 86400
	}
	return w
}
