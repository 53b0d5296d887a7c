package dfp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/nn"
)

// Config describes a DFP agent. Zero fields take defaults (see New).
type Config struct {
	// StateDim is the length of the state vector (from internal/encode).
	StateDim int
	// Measurements is M, the number of tracked objectives (resource
	// utilizations).
	Measurements int
	// Actions is the number of candidate actions (the window size W).
	Actions int

	// Offsets are the temporal offsets (in decision steps) at which future
	// measurement changes are predicted.
	Offsets []int
	// TemporalWeights weight each offset when scoring actions; the DFP
	// paper emphasizes the far future ([0,0,0,0.5,0.5,1]).
	TemporalWeights []float64

	// StateHidden are the state-module layer widths. The paper's full-scale
	// Theta network is [4000, 1000]; experiments default to a scaled stack.
	StateHidden []int
	// StateOut is the state module's output width (512 in the paper).
	StateOut int
	// ModuleHidden is the width of the 3-layer measurement and goal modules
	// (128 in the paper).
	ModuleHidden int
	// StreamHidden is the hidden width of the expectation/action streams.
	StreamHidden int

	// UseCNN selects the original DFP convolutional state module instead of
	// MRSch's MLP (Figure 3 ablation).
	UseCNN bool
	// CNNChannels/CNNKernel/CNNStride/CNNPool fix the conv geometry.
	CNNChannels, CNNKernel, CNNStride, CNNPool int

	// StateModule, when non-nil, replaces the built-in state module with a
	// caller-provided network mapping StateDim inputs to StateOut outputs
	// (New panics if it does not). Used for the §III-A
	// one-net-vs-per-resource-nets ablation, where the caller knows the
	// encoding layout. Takes precedence over UseCNN.
	StateModule nn.Layer

	// LR is the Adam learning rate.
	LR float64
	// GradClip caps per-parameter gradient L2 norms (0 disables).
	GradClip float64
	// EpsStart/EpsDecay/EpsMin drive the epsilon-greedy exploration
	// schedule; the paper uses eps=1.0 decaying by 0.995 (§IV-C).
	EpsStart, EpsDecay, EpsMin float64
	// ReplayCap bounds the experience buffer.
	ReplayCap int
	// BatchSize is the minibatch size per training step.
	BatchSize int
	// Seed makes the agent deterministic: training is a function of the
	// config, Seed included, bitwise, whatever the host's core count (a
	// gradient step always cuts its minibatch into the same shards,
	// engine.go).
	Seed int64

	// shards is the number of shards a gradient step cuts its minibatch
	// into, 0 meaning stepShards. Only this package's tests set it: the
	// fixtures written at one shard, and the engine's tests at more.
	shards int
}

// DefaultConfig returns the experiment-scale configuration for a given
// state dimension, measurement count, and action count.
func DefaultConfig(stateDim, measurements, actions int) Config {
	return Config{
		StateDim:        stateDim,
		Measurements:    measurements,
		Actions:         actions,
		Offsets:         []int{1, 2, 4, 8, 16, 32},
		TemporalWeights: []float64{0, 0, 0, 0.5, 0.5, 1},
		StateHidden:     []int{128, 64},
		StateOut:        64,
		ModuleHidden:    32,
		StreamHidden:    64,
		CNNChannels:     8,
		CNNKernel:       8,
		CNNStride:       4,
		CNNPool:         2,
		LR:              1e-3,
		GradClip:        5,
		EpsStart:        1.0,
		EpsDecay:        0.995,
		EpsMin:          0.02,
		ReplayCap:       20000,
		BatchSize:       32,
		Seed:            1,
	}
}

// PaperScaleConfig returns the full-scale network of §IV-C: state module
// 4000/1000 hidden with a 512-wide output, 128-wide measurement and goal
// modules. Used by the decision-latency benchmark (§V-F).
func PaperScaleConfig(stateDim, measurements, actions int) Config {
	cfg := DefaultConfig(stateDim, measurements, actions)
	cfg.StateHidden = []int{4000, 1000}
	cfg.StateOut = 512
	cfg.ModuleHidden = 128
	cfg.StreamHidden = 512
	return cfg
}

// PredDim returns the length of the per-action prediction vector
// (offsets x measurements).
func (c *Config) PredDim() int { return len(c.Offsets) * c.Measurements }

// GoalDim returns the network's goal-input length (same as PredDim: the
// per-measurement goal extended across offsets by the temporal weights).
func (c *Config) GoalDim() int { return c.PredDim() }

func (c *Config) validate() error {
	if c.StateDim <= 0 || c.Measurements <= 0 || c.Actions <= 0 {
		return fmt.Errorf("dfp: dims must be positive: state=%d meas=%d actions=%d",
			c.StateDim, c.Measurements, c.Actions)
	}
	if len(c.Offsets) == 0 {
		return fmt.Errorf("dfp: no temporal offsets")
	}
	if len(c.TemporalWeights) != len(c.Offsets) {
		return fmt.Errorf("dfp: %d temporal weights for %d offsets", len(c.TemporalWeights), len(c.Offsets))
	}
	prev := 0
	for _, o := range c.Offsets {
		if o <= prev {
			return fmt.Errorf("dfp: offsets must be strictly increasing and positive, got %v", c.Offsets)
		}
		prev = o
	}
	return nil
}

// Agent is a DFP agent.
type Agent struct {
	cfg Config

	// nets holds the five networks; scr the inference scratch. Act and
	// Predict run entirely through these agent-owned buffers, so a
	// steady-state Act performs zero heap allocations (§V-F decision-latency
	// requirement). Rollout actors (actor.go) pair SharedClone replicas of
	// nets with their own scratch.
	nets modules
	scr  inferScratch

	params []*nn.Param
	opt    *nn.Adam
	rng    *rand.Rand
	// rngSrc is rng's underlying source; its draw cursor is what
	// AppendState/ReadState (state.go) persist to resume the stream exactly.
	rngSrc *nn.CursorSource

	eps    float64
	replay *replay

	trainSteps int

	// Training engine state (engine.go).
	workers  []*trainWorker
	plan     stepPlan
	gang     gang
	batchBuf []*Experience
	headWcol nn.Vec // per-step column-collapsed action-head weights (PredDim x StreamHidden)

	// Step observation (ObserveSteps): the calling goroutine's phase clock.
	observe func(StepPhases)
	phases  StepPhases
	phaseAt time.Time
}

// New constructs an agent. It panics on an invalid configuration.
func New(cfg Config) *Agent {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	// The agent rng rides a CursorSource so its position can be
	// checkpointed; the draw streams are bit-identical to rand.NewSource.
	src := nn.NewCursorSource(cfg.Seed)
	rng := rand.New(src)
	a := &Agent{
		cfg:    cfg,
		rng:    rng,
		rngSrc: src,
		eps:    cfg.EpsStart,
		replay: newReplay(cfg.ReplayCap),
	}
	a.nets = buildModules(&cfg, rng)
	a.params = a.nets.params()
	a.opt = nn.NewAdam(cfg.LR)
	return a
}

// buildModules builds the five networks of cfg's architecture, drawing their
// initial weights from rng in one fixed order.
func buildModules(cfg *Config, rng *rand.Rand) modules {
	var m modules
	m.state = buildStateModule(cfg, rng)
	h := cfg.ModuleHidden
	m.meas = nn.NewSequential(cfg.Measurements,
		nn.NewDense(cfg.Measurements, h, nn.HeInit, rng), nn.NewLeakyReLU(0.01),
		nn.NewDense(h, h, nn.HeInit, rng), nn.NewLeakyReLU(0.01),
		nn.NewDense(h, h, nn.HeInit, rng),
	)
	m.goal = nn.NewSequential(cfg.GoalDim(),
		nn.NewDense(cfg.GoalDim(), h, nn.HeInit, rng), nn.NewLeakyReLU(0.01),
		nn.NewDense(h, h, nn.HeInit, rng), nn.NewLeakyReLU(0.01),
		nn.NewDense(h, h, nn.HeInit, rng),
	)
	jointDim := cfg.StateOut + 2*h
	m.exp = nn.NewSequential(jointDim,
		nn.NewDense(jointDim, cfg.StreamHidden, nn.HeInit, rng), nn.NewLeakyReLU(0.01),
		nn.NewDense(cfg.StreamHidden, cfg.PredDim(), nn.XavierInit, rng),
	)
	m.act = nn.NewSequential(jointDim,
		nn.NewDense(jointDim, cfg.StreamHidden, nn.HeInit, rng), nn.NewLeakyReLU(0.01),
		nn.NewDense(cfg.StreamHidden, cfg.Actions*cfg.PredDim(), nn.XavierInit, rng),
	)
	return m
}

func buildStateModule(cfg *Config, rng *rand.Rand) nn.Layer {
	if cfg.StateModule != nil {
		if got := customOutSize(cfg.StateModule, cfg.StateDim); got != cfg.StateOut {
			panic(fmt.Sprintf("dfp: custom state module outputs %d, config wants %d", got, cfg.StateOut))
		}
		return cfg.StateModule
	}
	if cfg.UseCNN {
		conv := nn.NewConv1D(1, cfg.StateDim, cfg.CNNChannels, cfg.CNNKernel, cfg.CNNStride, rng)
		pool := nn.NewMaxPool1D(cfg.CNNChannels, conv.OutLen(), cfg.CNNPool)
		flat := cfg.CNNChannels * pool.OutLen()
		return nn.NewSequential(cfg.StateDim,
			conv, nn.NewLeakyReLU(0.01),
			pool,
			nn.NewDense(flat, cfg.StateOut, nn.HeInit, rng),
		)
	}
	layers := []nn.Layer{}
	in := cfg.StateDim
	for _, hdim := range cfg.StateHidden {
		layers = append(layers, nn.NewDense(in, hdim, nn.HeInit, rng), nn.NewLeakyReLU(0.01))
		in = hdim
	}
	layers = append(layers, nn.NewDense(in, cfg.StateOut, nn.HeInit, rng))
	return nn.NewSequential(cfg.StateDim, layers...)
}

// customOutSize is m.OutSize(in). A layer answers a width it cannot take by
// panicking in nn's name; New says whose configuration it was.
func customOutSize(m nn.Layer, in int) int {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("dfp: custom state module rejects StateDim %d: %v", in, r))
		}
	}()
	return m.OutSize(in)
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.eps }

// EpsilonAt returns the exploration rate in effect for 0-based episode i of
// a training run: EpsStart decayed i times, floored at EpsMin after every
// decay — exactly the value Epsilon reports after i IngestTranscript calls.
// Rollout actors are reset with this value so a parallel harness reproduces
// the serial exploration schedule.
func (c *Config) EpsilonAt(episode int) float64 {
	eps := c.EpsStart
	for i := 0; i < episode; i++ {
		eps *= c.EpsDecay
		if eps < c.EpsMin {
			eps = c.EpsMin
		}
	}
	return eps
}

// NumParams returns the number of learnable scalars across all modules.
func (a *Agent) NumParams() int {
	n := 0
	for _, p := range a.params {
		n += len(p.Value)
	}
	return n
}

// ExtendGoal expands a per-measurement goal vector across the temporal
// offsets using the configured temporal weights, producing the network's
// goal input (and the scoring weights for action selection).
func (a *Agent) ExtendGoal(goal []float64) []float64 {
	return a.cfg.extendGoalInto(make([]float64, a.cfg.GoalDim()), goal)
}

// extendGoalInto is the zero-allocation ExtendGoal used by Act (agent and
// actor alike).
func (c *Config) extendGoalInto(dst, goal []float64) []float64 {
	if len(goal) != c.Measurements {
		panic(fmt.Sprintf("dfp: goal has %d entries, want %d", len(goal), c.Measurements))
	}
	i := 0
	for k := range c.Offsets {
		w := c.TemporalWeights[k]
		for _, g := range goal {
			dst[i] = w * g
			i++
		}
	}
	return dst
}

// forwardScratch runs one sample through the shared inference forward
// (modules.forwardDueling at bsz=1) with the agent's own scratch and returns
// the per-action prediction rows (valid until the next forwardScratch).
func (a *Agent) forwardScratch(state, meas, goalExt []float64) [][]float64 {
	return a.nets.forwardDueling(&a.cfg, &a.scr, state, meas, goalExt, 1)
}

// Predict returns the per-action predicted future-measurement changes for
// the given inputs (inference only). The returned rows are agent-owned
// scratch — valid until this agent's next Predict call, and not clobbered
// by Act — so the steady-state forward path is uniformly zero-alloc.
// Callers that need the rows beyond the next Predict must copy them.
func (a *Agent) Predict(state, meas, goalExt []float64) [][]float64 {
	preds := a.forwardScratch(state, meas, goalExt)
	n, pd := len(preds), a.cfg.PredDim()
	a.scr.predOutBack = nn.Ensure(a.scr.predOutBack, n*pd)
	if len(a.scr.predOut) != n {
		a.scr.predOut = make([][]float64, n)
	}
	for i, p := range preds {
		row := a.scr.predOutBack[i*pd : (i+1)*pd]
		copy(row, p)
		a.scr.predOut[i] = row
	}
	return a.scr.predOut
}

// Score collapses predictions into one scalar objective per action:
// the dot product of the extended goal with each action's prediction.
func (a *Agent) Score(preds [][]float64, goalExt []float64) []float64 {
	return scoreInto(make([]float64, len(preds)), preds, goalExt)
}

// Act selects greedily among the first valid actions on the predicted
// outcomes, with zero heap allocations in steady state: the whole forward
// pass runs through agent-owned scratch buffers. It records nothing: an
// episode is explored and recorded by an Actor (Agent.Actor). train must be
// false and Act panics on true; the parameter stays because bench/ passes it,
// and only ROADMAP item 1 may edit bench/.
func (a *Agent) Act(state, meas, goal []float64, valid int, train bool) int {
	if train {
		panic("dfp: Agent.Act records no episode; explore through Agent.Actor")
	}
	if valid <= 0 || valid > a.cfg.Actions {
		valid = a.cfg.Actions
	}
	a.scr.goalExt = nn.Ensure(a.scr.goalExt, a.cfg.GoalDim())
	goalExt := a.cfg.extendGoalInto(a.scr.goalExt, goal)
	a.scr.score = nn.Ensure(a.scr.score, a.cfg.Actions)
	scores := scoreInto(a.scr.score, a.forwardScratch(state, meas, goalExt), goalExt)
	return nn.ArgMax(scores[:valid])
}

// ReplaySize returns the number of stored experiences.
func (a *Agent) ReplaySize() int { return a.replay.len() }

// Load restores network weights written by Model.Save into an agent
// constructed with the same Config, checking the whole file first.
func (a *Agent) Load(r io.Reader) error { return nn.LoadWeights(r, a.params) }

// Params returns the agent's live parameters, in the order its weights are
// saved.
func (a *Agent) Params() []*nn.Param { return a.params }
