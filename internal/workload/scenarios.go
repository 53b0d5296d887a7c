package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/job"
)

// Scenario is one row of Table III: a transformation of the base trace that
// dials burst-buffer contention from light (S1) to heavy (S5).
type Scenario struct {
	Name string
	// BBProb is the fraction of jobs given a burst-buffer request.
	BBProb float64
	// MinTB/MaxTB bound the request sizes drawn from the original request
	// pool (full-Theta TB scale).
	MinTB, MaxTB float64
	// HalveNodes halves each job's node request (S5: less CPU contention).
	HalveNodes bool
}

// Scenarios returns Table III's S1-S5.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "S1", BBProb: 0.50, MinTB: 5, MaxTB: 285},
		{Name: "S2", BBProb: 0.75, MinTB: 5, MaxTB: 285},
		{Name: "S3", BBProb: 0.50, MinTB: 20, MaxTB: 285},
		{Name: "S4", BBProb: 0.75, MinTB: 20, MaxTB: 285},
		{Name: "S5", BBProb: 0.75, MinTB: 20, MaxTB: 285, HalveNodes: true},
	}
}

// ScenarioByName returns the named scenario (S1-S5) or an error.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q", name)
}

// Apply builds a scenario workload from a base trace: every job keeps its
// arrival and runtimes; with probability BBProb it receives a burst-buffer
// request resampled from the original request pool restricted to
// [MinTB, MaxTB] (as Table III prescribes: "the assigned burst buffer
// request is randomly selected from the original requests within a certain
// range"); S5 additionally halves node counts. The input jobs are not
// mutated: the result is fresh jobs the caller owns, laid out like
// job.CloneAll's (one slab of jobs, one of demand units cut with cap = len).
func Apply(base []*job.Job, pool []float64, sc Scenario, sys cluster.Config, seed int64) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	restricted := restrictPool(pool, sc.MinTB, sc.MaxTB)
	bbCap := sys.Capacities[1]
	nodeCap := sys.Capacities[0]
	// The demand vector is rebuilt at the target system's arity: the base
	// trace may carry extra resource columns (e.g. a power-extended system)
	// that this scenario does not populate.
	arity := len(sys.Capacities)
	slab := make([]job.Job, len(base))
	arena := make([]int, len(base)*arity)
	out := make([]*job.Job, len(base))
	for i, b := range base {
		nodes := b.Demand[0]
		if sc.HalveNodes {
			nodes = maxInt(1, nodes/2)
		}
		if nodes > nodeCap {
			nodes = nodeCap
		}
		d := arena[i*arity : (i+1)*arity : (i+1)*arity]
		d[0] = nodes
		if rng.Float64() < sc.BBProb {
			tb := pickTB(restricted, sc, rng)
			d[1] = tbToUnits(tb, bbCap)
		}
		slab[i] = job.Job{
			ID:       b.ID,
			Submit:   b.Submit,
			Runtime:  b.Runtime,
			Walltime: b.Walltime,
			Demand:   d,
			User:     b.User,
		}
		out[i] = &slab[i]
	}
	return out
}

// restrictPool filters the original request pool to [minTB, maxTB].
func restrictPool(pool []float64, minTB, maxTB float64) []float64 {
	var out []float64
	for _, tb := range pool {
		if tb >= minTB && tb <= maxTB {
			out = append(out, tb)
		}
	}
	return out
}

// pickTB draws from the restricted pool, falling back to a log-uniform draw
// over the scenario range when the pool is empty (tiny test traces).
func pickTB(restricted []float64, sc Scenario, rng *rand.Rand) float64 {
	if len(restricted) > 0 {
		return restricted[rng.Intn(len(restricted))]
	}
	return sc.MinTB * math.Exp(rng.Float64()*math.Log(sc.MaxTB/sc.MinTB))
}

// PowerScenario extends a Table III scenario with the §V-E power profiles.
type PowerScenario struct {
	Scenario
	// MinW/MaxW bound the per-node power draw (100-215 W on Theta's KNL).
	MinW, MaxW float64
}

// PowerScenarios returns S6-S10: the S1-S5 workloads with per-node power
// profiles drawn uniformly from 100-215 W (§V-E).
func PowerScenarios() []PowerScenario {
	base := Scenarios()
	out := make([]PowerScenario, len(base))
	for i, sc := range base {
		sc.Name = fmt.Sprintf("S%d", 6+i)
		out[i] = PowerScenario{Scenario: sc, MinW: 100, MaxW: 215}
	}
	return out
}

// ApplyPower builds an S6-S10 workload: the underlying Table III transform
// plus a power demand of nodes x per-node-watts, in the power pool's kW
// units scaled to the system's budget. sys must already include the power
// resource (see WithPower).
func ApplyPower(base []*job.Job, pool []float64, sc PowerScenario, sys cluster.Config, seed int64) []*job.Job {
	return ApplyPowerBudget(base, pool, sc, sys, ThetaPowerBudgetKW, seed)
}

// ApplyPowerBudget is ApplyPower against an explicit full-machine power
// budget in kW: physical watt draws are converted to capacity units
// relative to that budget, so a tighter budget makes the same draw a larger
// fraction of the system — the binding knob behind ScenarioSpec's
// power_budget_kw. sys must carry a matching capacity (WithPowerBudget).
func ApplyPowerBudget(base []*job.Job, pool []float64, sc PowerScenario, sys cluster.Config, budgetKW int, seed int64) []*job.Job {
	if len(sys.Capacities) < 3 {
		panic("workload: ApplyPower requires a power-extended system (WithPower)")
	}
	// Apply reads the first two capacities and lays every demand out at the
	// system's arity, so the power column is already there to fill.
	jobs := Apply(base, pool, sc.Scenario, sys, seed)
	rng := rand.New(rand.NewSource(seed + 7919))
	budget := sys.Capacities[2]
	fullBudgetW := float64(budgetKW*1000) * float64(sys.Capacities[0]) / float64(ThetaNodes)
	for _, j := range jobs {
		perNode := sc.MinW + rng.Float64()*(sc.MaxW-sc.MinW)
		draw := perNode * float64(j.Demand[0])
		units := int(math.Ceil(draw / fullBudgetW * float64(budget)))
		if units < 1 {
			units = 1
		}
		if units > budget {
			units = budget
		}
		j.Demand[2] = units
	}
	return jobs
}
