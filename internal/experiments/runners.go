package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/rl"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Method names as the paper labels them (§IV-D). They are the display
// names of the scenario.MethodKind registry (asserted by tests);
// scenario.MethodByName resolves either form.
const (
	MethodMRSch     = "MRSch"
	MethodOptimize  = "Optimization"
	MethodScalarRL  = "Scalar RL"
	MethodHeuristic = "Heuristic"
)

// Evaluate replays jobs through the policy on a fresh cluster and collects
// the §IV-B metrics. powerIdx is the power resource index or -1. The jobs
// are cloned first, so one slice can be replayed under several policies.
func Evaluate(sys cluster.Config, policy sim.Policy, jobs []*job.Job, method, wl string, powerIdx int) (metrics.Report, error) {
	return evaluateOwned(sys, policy, job.CloneAll(jobs), method, wl, powerIdx)
}

// evaluateOwned is Evaluate on jobs the caller built for this one replay
// and gives up: the simulator writes their state.
func evaluateOwned(sys cluster.Config, policy sim.Policy, jobs []*job.Job, method, wl string, powerIdx int) (metrics.Report, error) {
	s := sim.New(sys, policy)
	if err := s.Load(jobs); err != nil {
		return metrics.Report{}, fmt.Errorf("experiments: %s on %s: %w", method, wl, err)
	}
	if err := s.Run(); err != nil {
		return metrics.Report{}, fmt.Errorf("experiments: %s on %s: %w", method, wl, err)
	}
	return metrics.Collect(method, wl, s, powerIdx), nil
}

// runOptions returns the experiment-scale options of a run's MRSch agent:
// the ones newAgent builds it with and a saved model of it loads with. MRSch
// seeds Seed+11 (Seed+13 on the three-resource system) unless the run sets
// its own.
func (s Scale) runOptions(run TrainRun) core.Options {
	seed := run.Seed
	if seed == 0 {
		seed = s.Seed + 11
		if run.Power {
			seed = s.Seed + 13
		}
	}
	return core.Options{
		Window:          s.Window,
		UseCNN:          run.CNN && !run.Power,
		PerResourceNets: run.PerResourceNets,
		Seed:            seed,
		Mutate: func(c *dfp.Config) {
			c.EpsDecay = s.EpsDecay
			// Short episodes: keep offsets inside the horizon.
			c.Offsets = []int{1, 2, 4, 8, 16}
			c.TemporalWeights = []float64{0, 0, 0.5, 0.5, 1}
		},
	}
}

// NewMRSchUntrained builds the campaign-architecture agent without training,
// so saved weights (cmd/mrsch-train) can be loaded into it.
func NewMRSchUntrained(sc Scale, power bool) *core.MRSch {
	model, _, _ := sc.newAgent(TrainRun{Kind: scenario.KindMRSch, Power: power}, sc.systemFor(power))
	return model.MRSch
}

// TrainMRSch trains the two-resource MRSch family model for a Table III
// scenario: Train on a TrainRun of kind mrsch, in barrier mode with nothing
// checkpointed or observed.
func TrainMRSch(m *Materials, name string, useCNN bool) (*core.MRSch, []core.EpisodeResult, error) {
	t, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: name, CNN: useCNN}, CampaignOptions{})
	return t.MRSch, t.Episodes, err
}

// TrainRun names one training run: which method's agent (Kind: mrsch or
// scalar-rl) learns on which builtin scenario family's curriculum. Power
// selects the three-resource system and the §V-E power curriculum of an
// S6-S10 family, which always builds the MLP; CNN selects the convolutional
// state module (Figure 3) elsewhere.
type TrainRun struct {
	Kind   scenario.MethodKind
	Family string
	Power  bool
	CNN    bool
	// Validate runs the §IV-A model-selection protocol (mrsch only): every
	// second episode the agent is scored greedily on the validation
	// workload — between rounds, when no rollout is in flight — and the
	// best weights are restored at the end.
	Validate bool

	// The bespoke studies' deviations from the campaign's recipe: Order
	// replaces the sampled -> real -> synthetic curriculum (Figure 4), Seed
	// the agent seed, and PerResourceNets builds the §III-A per-resource
	// state networks MRSch rejects. Such a run is not checkpointed: a study
	// reads the whole episode stream, and a resumed run returns its tail.
	Order           Ordering
	Seed            int64
	PerResourceNets bool
}

// Trained is what a training run leaves behind: the agent, by kind, holding
// its weights and nothing only training reads (Train releases the rest), the
// per-episode results (after a resume, the tail that ran in this process)
// and, for a validated run, the best validation score seen.
type Trained struct {
	MRSch    *core.MRSch
	ScalarRL *rl.Scheduler
	Episodes []core.EpisodeResult
	Best     core.ValidationMetrics

	// agent is MRSch's dfp.Agent or ScalarRL, as what both are to Train: a
	// checkpoint state section that a finished training releases; save
	// writes its model file.
	agent trainee
	save  func(io.Writer) error
}

// trainee is what both agent kinds are to Train: a state section, and what
// ReleaseTraining drops once the last gradient step has run.
type trainee interface {
	section
	ReleaseTraining()
}

// paperOrdering is the curriculum ordering the paper found best (§V-B).
var paperOrdering = Ordering{core.Sampled, core.Real, core.Synthetic}

// Train is the one training entry point, for a campaign's family models and
// mrsch-train alike: it builds the run's agent at the materials' scale, lays
// out its curriculum and collects the episodes through the internal/rollout
// harness under opt's runtime — barrier or opt.Pipelined, opt.Metrics/Journal
// observing. With opt.CheckpointDir
// set the run writes a resumable checkpoint at every round boundary —
// validated runs carry the selection state (best score and weights)
// alongside the agent state, under a "-validated" key so they never collide
// with plain ones — and with opt.Resume it continues a previously
// interrupted run bitwise identically. It ends, on the error path too, by
// releasing what only training reads (dfp.Agent.ReleaseTraining,
// rl.Scheduler.ReleaseTraining): the step workers, the replay ring's
// experiences, the gradients and the optimizer's moments. A trained agent
// holds its weights — what deciding and saving read — and the run's
// checkpoint, written before the release, is what resuming reads. Training
// the returned agent further is fine-tuning from its weights, with a fresh
// optimizer and an empty ring. The model-store fields of opt (ModelDir,
// OnModel, NoTrain) are the campaign's and are not read here.
func Train(m *Materials, run TrainRun, opt CampaignOptions) (Trained, error) {
	if err := m.needTraining("training " + run.Family); err != nil {
		return Trained{}, err
	}
	sc := m.Scale
	sys := sc.systemFor(run.Power)
	out, learner, err := sc.newAgent(run, sys)
	if err != nil {
		return out, err
	}

	var sets []core.JobSet
	if run.Power {
		if sets, err = m.powerCurriculum(run.Family); err != nil {
			return out, err
		}
	} else {
		order := run.Order
		if order == (Ordering{}) {
			order = paperOrdering
		}
		sets = order.Sets(m.CurriculumSets(run.Family))
	}

	cfg := rollout.Config{
		Seed:      sc.Seed + 7,
		Pipelined: opt.Pipelined,
		Metrics:   opt.Metrics,
		Journal:   opt.Journal,
	}
	key := trainKey(string(run.Kind), run.Family, run.CNN && !run.Power, run.Power)
	sections := []section{out.agent}
	var sel *core.Selection
	if run.Validate {
		if out.MRSch == nil {
			return out, fmt.Errorf("experiments: validated training applies to %s only", scenario.KindMRSch)
		}
		valid, err := m.ValidationWorkload(run.Family)
		if err != nil {
			return out, err
		}
		sel = core.NewSelection(out.MRSch, sys, valid, 2)
		cfg.AfterEpisode = sel.AfterEpisode
		key += "-validated"
		sections = append(sections, sel)
	}
	if study := run.Order != (Ordering{}) || run.Seed != 0 || run.PerResourceNets; !study {
		if err := opt.wireCheckpoint(&cfg, sc, key, len(sets), sections); err != nil {
			return out, err
		}
	}
	out.Episodes, err = rollout.Train(learner, cfg, sets)
	// rollout.Train has returned, and with it every update, burst of
	// gradient steps and helper goroutine, and the last checkpoint is
	// written, so nothing reads what only training reads any more.
	out.agent.ReleaseTraining()
	if err != nil {
		return out, fmt.Errorf("experiments: training %s on %s: %w", run.Kind, run.Family, err)
	}
	if sel != nil {
		out.Best = sel.Finish()
	}
	return out, nil
}

// newAgent builds a run's untrained agent on sys together with the learner
// that trains it — the one construction training, model-store reloading and
// mrsch-train's weight files must agree on, or saved weights stop fitting.
// MRSch takes runOptions, scalar RL seeds Seed+17.
func (s Scale) newAgent(run TrainRun, sys cluster.Config) (Trained, rollout.Learner, error) {
	switch run.Kind {
	case scenario.KindMRSch:
		agent := core.New(sys, s.runOptions(run))
		return Trained{MRSch: agent, agent: agent.Agent, save: agent.Save}, rollout.NewMRSchLearner(agent, core.TrainConfig{System: sys, StepsPerEpisode: s.StepsPerEpisode}), nil
	case scenario.KindScalarRL:
		cfg := rl.DefaultConfig()
		cfg.Window = s.Window
		cfg.Seed = s.Seed + 17
		agent := rl.New(sys, cfg)
		return Trained{ScalarRL: agent, agent: agent, save: agent.Save}, rollout.NewScalarRLLearner(agent, core.TrainConfig{System: sys}), nil
	}
	return Trained{}, nil, fmt.Errorf("experiments: method %s is training-free", run.Kind)
}

// systemFor returns the scaled machine: two resources, or the §V-E
// three-resource one.
func (s Scale) systemFor(power bool) cluster.Config {
	if power {
		return s.PowerSystem()
	}
	return s.System()
}

// powerCurriculum builds sampled and real training sets carrying power
// demands for an S6-S10 workload. Power workloads reuse the scenario
// transform of their S1-S5 counterpart for the curriculum. It fails on
// evaluation-only materials.
func (m *Materials) powerCurriculum(powerName string) ([]core.JobSet, error) {
	if err := m.needTraining("a power curriculum"); err != nil {
		return nil, err
	}
	for i, p := range workload.PowerScenarios() {
		if p.Name != powerName {
			continue
		}
		s := m.Scale
		psys := s.PowerSystem()
		var sets []core.JobSet
		for _, kind := range []core.JobSetKind{core.Sampled, core.Real} {
			var raw [][]*job.Job
			if kind == core.Sampled {
				raw = workload.SampledSets(m.Train, s.SetsPerKind, s.SetSize, s.Seed+600+int64(i))
			} else {
				raw = workload.RealSets(m.Train, s.SetsPerKind, s.SetSize)
			}
			for k, set := range raw {
				jobs := workload.ApplyPower(set, m.Pool, p, psys, s.Seed+700+int64(k))
				sets = append(sets, core.JobSet{Kind: kind, Jobs: jobs})
			}
		}
		return sets, nil
	}
	return nil, fmt.Errorf("experiments: unknown power workload %s", powerName)
}

// NewGA returns the Optimization baseline picker, sched.Pareto. The seed is
// unused: the picker is exact and draws nothing. The parameter stays because
// the benchmark harness passes one.
func NewGA(int64) sched.Picker { return sched.Pareto{} }

// FCFSPolicy returns the Heuristic baseline policy.
func FCFSPolicy(window int) *sched.WindowPolicy {
	return sched.NewWindowPolicy(sched.FCFS{}, window)
}
