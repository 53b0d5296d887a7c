// Package core implements MRSch, the paper's intelligent multi-resource
// scheduling agent (§III): the DFP-based decision network, the vector state
// encoding, dynamic resource prioritizing via the Eq. (1) goal vector, and
// the training strategy of §III-D. It plugs into the shared scheduling
// framework (window + reservation + EASY backfilling) as a sched.Picker.
package core

import (
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/dfp"
	"repro/internal/encode"
	"repro/internal/nn"
	"repro/internal/sched"
)

// MRSch is the scheduling agent. Its own picks (Pick) are greedy and recorded
// nowhere, the reference its actors and deciders are held to; an episode is
// explored and recorded by an MRSchActor (Actor), and a whole schedule is
// evaluated by its trained model's (Model, Model.Evaluator).
type MRSch struct {
	Enc   encode.Config
	Agent *dfp.Agent

	// FixedGoal, when non-nil, replaces the Eq. (1) dynamic goal vector
	// with a static one — the ablation that reduces MRSch to a fixed-
	// priority multi-objective agent (what Figure 9 contrasts against the
	// scalar-RL's implicit fixed 0.5/0.5).
	FixedGoal []float64
}

// Options tune the agent's construction beyond the defaults.
type Options struct {
	// Window is W (default 10, the paper's setting).
	Window int
	// UseCNN selects the convolutional state module (Figure 3 ablation).
	UseCNN bool
	// PerResourceNets builds one state sub-network per resource, each
	// seeing the job window plus its own resource's units — the §III-A
	// design alternative MRSch rejects (job information is encoded R times
	// and parameters fragment). Provided for the ablation benchmark.
	PerResourceNets bool
	// Seed fixes all stochastic behaviour of the agent.
	Seed int64
	// Mutate, when non-nil, receives the dfp.Config before the agent is
	// built, for fine-grained overrides in tests and experiments.
	Mutate func(*dfp.Config)
}

// Model is a trained MRSch model, read-only: the state encoding, the DFP
// model (dfp.Model) and the goal override. A campaign's cells, validation,
// the figures and the decision daemon read a trained agent through one. A
// study that varies the goal copies the struct and sets FixedGoal; the copy
// shares the weights.
type Model struct {
	Enc       encode.Config
	DFP       *dfp.Model
	FixedGoal []float64
}

// Model returns the agent's model over its current weights
// (dfp.Agent.Model): valid until they next change.
func (m *MRSch) Model() *Model {
	return &Model{Enc: m.Enc, DFP: m.Agent.Model(), FixedGoal: m.FixedGoal}
}

// LoadModel reads a model file saved by an agent New(sys, opts) builds
// (dfp.LoadModel), without building that agent.
func LoadModel(sys cluster.Config, opts Options, r io.Reader) (*Model, error) {
	enc, cfg := configure(sys, opts)
	dm, err := dfp.LoadModel(cfg, r)
	if err != nil {
		return nil, err
	}
	return &Model{Enc: enc, DFP: dm}, nil
}

// New constructs an MRSch agent for the given system.
func New(sys cluster.Config, opts Options) *MRSch {
	enc, cfg := configure(sys, opts)
	return &MRSch{Enc: enc, Agent: dfp.New(cfg)}
}

// configure returns the state encoding and the DFP configuration of the
// agent New builds on sys with opts.
func configure(sys cluster.Config, opts Options) (encode.Config, dfp.Config) {
	w := opts.Window
	if w <= 0 {
		w = 10
	}
	enc := encode.NewConfig(w, sys.Capacities)
	cfg := dfp.DefaultConfig(enc.StateDim(), enc.Resources(), w)
	cfg.UseCNN = opts.UseCNN
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Mutate != nil {
		opts.Mutate(&cfg)
	}
	if opts.PerResourceNets {
		cfg.StateModule = perResourceStateModule(&enc, &cfg)
	}
	return enc, cfg
}

// perResourceStateModule builds the §III-A alternative state module: one
// MLP per resource, each consuming the job window plus that resource's unit
// section, outputs concatenated to StateOut. Hidden widths are divided
// across the branches so the parameter budget stays comparable to the
// single-network design.
func perResourceStateModule(enc *encode.Config, cfg *dfp.Config) nn.Layer {
	rng := rand.New(rand.NewSource(cfg.Seed + 971))
	r := enc.Resources()
	branches := make([]nn.Branch, 0, r)
	outPer := cfg.StateOut / r
	for res := 0; res < r; res++ {
		start, end := enc.UnitRange(res)
		in := enc.JobBlockLen() + (end - start)
		out := outPer
		if res == r-1 {
			out = cfg.StateOut - outPer*(r-1) // remainder keeps the total exact
		}
		layers := []nn.Layer{}
		prev := in
		for _, h := range cfg.StateHidden {
			hr := h / r
			if hr < 4 {
				hr = 4
			}
			layers = append(layers, nn.NewDense(prev, hr, nn.HeInit, rng), nn.NewLeakyReLU(0.01))
			prev = hr
		}
		layers = append(layers, nn.NewDense(prev, out, nn.HeInit, rng))
		branches = append(branches, nn.Branch{
			Ranges: [][2]int{{0, enc.JobBlockLen()}, {start, end}},
			Net:    nn.NewSequential(in, layers...),
		})
	}
	return nn.NewMultiBranch(enc.StateDim(), branches...)
}

var _ sched.Picker = (*MRSch)(nil)

// Pick implements sched.Picker: encode the state, compute the dynamic goal
// vector, and let the DFP agent choose a window job greedily.
func (m *MRSch) Pick(ctx *sched.PickContext) int {
	state := m.Enc.Encode(ctx)
	goal := m.FixedGoal
	if goal == nil {
		goal = GoalVector(ctx)
	}
	return m.Agent.Act(state, ctx.Usage, goal, len(ctx.Window), false)
}

// Save persists the agent's network weights as a model file: the bytes
// its Model would save, written from the agent's parameters without building
// one (a model packs its first layer, which a save never reads).
func (m *MRSch) Save(w io.Writer) error { return nn.SaveWeights(w, m.Agent.Params()) }

// Load restores network weights into an identically-configured agent.
func (m *MRSch) Load(r io.Reader) error { return m.Agent.Load(r) }
