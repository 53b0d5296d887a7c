package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Materials bundles everything a campaign needs: the scaled machine, the
// base trace with its Darshan-derived request pool, the Table III workloads
// (test split), and the curriculum job sets built from the training split.
//
// Prepare and PrepareFor return full materials. A CampaignRun keeps only
// what its cells evaluate: Scale, Pool, InterarrivalScale and the test split
// in one slab of its own, with Base, Train and Valid nil. Such evaluation-only
// materials build every workload (WorkloadSpec, Workload, SystemFor) as the
// full ones do, and refuse to train: Train, ValidationWorkload and
// CurriculumSets fail loudly on them instead of drawing a curriculum from a
// split that is not there.
type Materials struct {
	Scale Scale

	// Base is the synthetic Theta-like trace; Pool the burst-buffer request
	// pool mined from it (§IV-A).
	Base []*job.Job
	Pool []float64

	// Train/Valid/Test are the chronological split of the base trace
	// (§IV-A: 3.5 months training, two weeks validation, remainder test).
	Train, Valid, Test []*job.Job

	// InterarrivalScale records the theta-variant interarrival factor
	// already folded into Scale.MeanInterarrival (0 or 1 = none). PrepareFor
	// sets it when preparing variant materials, so WorkloadSpec can verify a
	// spec against the materials it is handed.
	InterarrivalScale float64
}

// Prepare generates the campaign's raw materials deterministically. The
// scale is validated first: nonpositive sizing fields fail loudly here
// instead of flowing silently into trace generation. The base trace is the
// synthetic generator's output — Markov-modulated when the scale sets
// Burst — or, when the scale names a Trace, an ingested SWF log rescaled
// onto the scaled system (workload.LoadTraceBase).
func Prepare(sc Scale) (*Materials, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sys := sc.System()
	var base []*job.Job
	if sc.Trace != "" {
		var err error
		base, err = workload.LoadTraceBase(sc.Trace, sys, sc.TraceDuration, sc.MeanInterarrival)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	} else {
		gcfg := workload.GeneratorConfig{
			System:           sys,
			Duration:         sc.TraceDuration,
			MeanInterarrival: sc.MeanInterarrival,
			Seed:             sc.Seed,
		}
		if sc.Burst != nil {
			b := sc.Burst.Config()
			gcfg.Burst = &b
		}
		base = workload.GenerateBase(gcfg)
	}
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], sc.Seed+1)
	train, valid, test := workload.PaperSplit(base)
	if len(test) == 0 { // degenerate tiny traces: evaluate on everything
		train, valid, test = base, base, base
	}
	if len(valid) == 0 {
		valid = train
	}
	return &Materials{Scale: sc, Base: base, Pool: pool, Train: train, Valid: valid, Test: test}, nil
}

// evaluationOnly returns the part of m a campaign cell evaluates against:
// its scale, request pool and interarrival factor, and its test split copied
// into one slab (job.CloneAll), so that the base trace and its training and
// validation splits are garbage once m is.
func (m *Materials) evaluationOnly() *Materials {
	return &Materials{Scale: m.Scale, Pool: m.Pool, Test: job.CloneAll(m.Test), InterarrivalScale: m.InterarrivalScale}
}

// needTraining fails on materials without a training split: a campaign run's
// evaluation-only materials, which train nothing.
func (m *Materials) needTraining(what string) error {
	if m.Train == nil {
		return fmt.Errorf("experiments: %s needs the training split, and these materials (seed %d) are evaluation-only; train on Prepare's or PrepareFor's", what, m.Scale.Seed)
	}
	return nil
}

// MustPrepare is Prepare for callers whose scale is a vetted builtin;
// it panics on validation failure.
func MustPrepare(sc Scale) *Materials {
	m, err := Prepare(sc)
	if err != nil {
		panic(err)
	}
	return m
}

// checkSpec verifies the spec's base-trace overrides match the materials:
// a Div or interarrival variant needs its own Prepare'd materials (the
// campaign runner resolves them); silently evaluating it against mismatched
// materials would report results for a scenario that was never built.
func (m *Materials) checkSpec(sp scenario.ScenarioSpec) error {
	if sp.Div > 0 && sp.Div != m.Scale.Div {
		return fmt.Errorf("experiments: scenario %s wants div %d but materials were prepared at div %d", sp.Name, sp.Div, m.Scale.Div)
	}
	want, have := sp.InterarrivalScale, m.InterarrivalScale
	if want == 0 {
		want = 1
	}
	if have == 0 {
		have = 1
	}
	if want != have {
		return fmt.Errorf("experiments: scenario %s scales interarrival x%g but materials carry x%g; prepare variant materials first (RunCampaign does)", sp.Name, want, have)
	}
	if sp.Trace != "" && sp.Trace != m.Scale.Trace {
		return fmt.Errorf("experiments: scenario %s replays trace %q but materials were prepared from %q", sp.Name, sp.Trace, orSynthetic(m.Scale.Trace))
	}
	if sp.Burst != nil && (m.Scale.Burst == nil || *sp.Burst != *m.Scale.Burst) {
		return fmt.Errorf("experiments: scenario %s wants bursty arrivals (%s) but materials carry a different arrival process; prepare variant materials first (RunCampaign does)", sp.Name, sp.Burst.Describe())
	}
	return nil
}

func orSynthetic(trace string) string {
	if trace == "" {
		return "the synthetic generator"
	}
	return trace
}

// WorkloadSpec builds the scenario's evaluation workload over the test
// split: the Table III transform (plus the §V-E power profile for power
// specs), then — when the spec asks — lognormal walltime-estimate noise
// and Zipf-skewed user ownership. Base-trace variant axes (div,
// interarrival, burst, trace) must already be reflected in the materials'
// scale; checkSpec rejects mismatches. Every call builds the jobs afresh —
// the transform copies the split once, the two axes then run on that copy —
// and nothing here keeps them: they are the caller's to load or mutate.
func (m *Materials) WorkloadSpec(sp scenario.ScenarioSpec) ([]*job.Job, error) {
	if err := m.checkSpec(sp); err != nil {
		return nil, err
	}
	var jobs []*job.Job
	if sp.Power {
		sys, budget := m.powerSystemFor(sp)
		jobs = workload.ApplyPowerBudget(m.Test, m.Pool, sp.PowerMix(), sys, budget, m.Scale.Seed+100)
	} else {
		jobs = workload.Apply(m.Test, m.Pool, sp.Mix(), m.Scale.System(), m.Scale.Seed+100)
	}
	if sp.WalltimeNoiseSigma > 0 {
		workload.NoiseWalltimesInPlace(jobs, sp.WalltimeNoiseSigma, m.Scale.Seed+170)
	}
	if sp.ZipfUsers > 0 {
		workload.AssignZipfUsersInPlace(jobs, sp.ZipfUsers, sp.ZipfTheta, m.Scale.Seed+190)
	}
	return rebase(jobs), nil
}

// SystemFor returns the system the scenario evaluates on (power-extended
// for power specs, with the spec's budget override applied).
func (m *Materials) SystemFor(sp scenario.ScenarioSpec) cluster.Config {
	if sp.Power {
		sys, _ := m.powerSystemFor(sp)
		return sys
	}
	return m.Scale.System()
}

// powerSystemFor resolves the power-extended system and effective budget.
func (m *Materials) powerSystemFor(sp scenario.ScenarioSpec) (cluster.Config, int) {
	budget := sp.PowerBudgetKW
	if budget <= 0 {
		budget = workload.ThetaPowerBudgetKW
	}
	return workload.WithPowerBudget(m.Scale.System(), budget), budget
}

// ValidationWorkload builds the named scenario's Table III mix over the
// validation split (§IV-A model selection). Resolution goes through
// scenario.ByName, so trace-family names ("T4") and variant syntax work;
// only the mix applies here — validation always runs unperturbed. It fails
// on evaluation-only materials.
func (m *Materials) ValidationWorkload(name string) ([]*job.Job, error) {
	if err := m.needTraining("a validation workload"); err != nil {
		return nil, err
	}
	sp := mustScenario(name)
	return rebase(workload.Apply(m.Valid, m.Pool, sp.Mix(), m.Scale.System(), m.Scale.Seed+150)), nil
}

// Workload builds the named builtin scenario over the test split — the
// string-keyed adapter over WorkloadSpec (variant syntax like "S4@wtn=0.5"
// resolves too; see scenario.ByName). Unknown names panic: the callers
// treat names as program constants.
func (m *Materials) Workload(name string) []*job.Job {
	jobs, err := m.WorkloadSpec(mustScenario(name))
	if err != nil {
		panic(err)
	}
	return jobs
}

// mustScenario resolves a scenario name the caller treats as a program
// constant.
func mustScenario(name string) scenario.ScenarioSpec {
	sp, err := scenario.ByName(name)
	if err != nil {
		panic(err)
	}
	return sp
}

// rebase shifts arrivals so the workload starts at time zero.
func rebase(jobs []*job.Job) []*job.Job {
	if len(jobs) == 0 {
		return jobs
	}
	t0 := jobs[0].Submit
	for _, j := range jobs {
		j.Submit -= t0
	}
	return jobs
}

// CurriculumSets builds the three §III-D set kinds for the named scenario
// from the training split: sampled (Poisson arrivals), real (trace slices),
// and synthetic (fresh generator output), each transformed by the scenario.
// It panics on evaluation-only materials, whose missing split would
// otherwise sample nothing and pace the synthetic sets by the scale's mean
// gap instead of the trace's: Train returns that as an error before it gets
// here.
func (m *Materials) CurriculumSets(scenarioName string) map[core.JobSetKind][][]*job.Job {
	if err := m.needTraining("a curriculum"); err != nil {
		panic(err)
	}
	sc := mustScenario(scenarioName).Mix()
	s := m.Scale
	sys := s.System()
	apply := func(sets [][]*job.Job, seedOff int64) [][]*job.Job {
		out := make([][]*job.Job, len(sets))
		for i, set := range sets {
			out[i] = workload.Apply(set, m.Pool, sc, sys, s.Seed+seedOff+int64(i))
		}
		return out
	}
	// Sampled and real sets inherit the materials' arrival process (bursty
	// or trace-derived) through m.Train; the synthetic sets regenerate it,
	// so a bursty campaign injects the same modulation into its curriculum.
	var burst *workload.Burst
	if s.Burst != nil {
		b := s.Burst.Config()
		burst = &b
	}
	sampled := apply(workload.SampledSets(m.Train, s.SetsPerKind, s.SetSize, s.Seed+200), 300)
	real := apply(workload.RealSets(m.Train, s.SetsPerKind, s.SetSize), 400)
	synth := workload.SyntheticSets(sys, sc, s.SetsPerKind, s.SetSize, m.meanGap(), s.Seed+500, burst)
	return map[core.JobSetKind][][]*job.Job{
		core.Sampled:   sampled,
		core.Real:      real,
		core.Synthetic: synth,
	}
}

// meanGap is the training split's mean interarrival gap, the pace of the
// synthetic curriculum sets. Only a split too short to have one (a
// degenerate tiny trace) falls back to the scale's; materials with no split
// at all never get here (CurriculumSets).
func (m *Materials) meanGap() float64 {
	if len(m.Train) < 2 {
		return m.Scale.MeanInterarrival
	}
	span := m.Train[len(m.Train)-1].Submit - m.Train[0].Submit
	if span <= 0 {
		return m.Scale.MeanInterarrival
	}
	return span / float64(len(m.Train)-1)
}

// Ordering is a curriculum ordering of the three set kinds (Figure 4).
type Ordering [3]core.JobSetKind

// Orderings returns all six permutations, labelled as the paper's legend.
func Orderings() []Ordering {
	return []Ordering{
		{core.Real, core.Sampled, core.Synthetic},
		{core.Real, core.Synthetic, core.Sampled},
		{core.Synthetic, core.Real, core.Sampled},
		{core.Synthetic, core.Sampled, core.Real},
		{core.Sampled, core.Synthetic, core.Real},
		{core.Sampled, core.Real, core.Synthetic},
	}
}

// Label renders an ordering like "Sampled+Real+Synthetic".
func (o Ordering) Label() string {
	return o[0].String() + "+" + o[1].String() + "+" + o[2].String()
}

// Sets flattens curriculum sets in this ordering into the episode sequence.
func (o Ordering) Sets(byKind map[core.JobSetKind][][]*job.Job) []core.JobSet {
	var out []core.JobSet
	for _, kind := range o {
		for _, jobs := range byKind[kind] {
			out = append(out, core.JobSet{Kind: kind, Jobs: jobs})
		}
	}
	return out
}
