package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/encode"
	"repro/internal/nn"
	"repro/internal/sched"
)

// Config tunes the policy-gradient agent.
type Config struct {
	// Window is W (default 10).
	Window int
	// Hidden are the policy network's hidden-layer widths.
	Hidden []int
	// Weights are the fixed per-resource reward weights; nil means uniform
	// 1/R (the paper's 0.5/0.5 for two resources).
	Weights []float64
	// LR is the Adam learning rate; Gamma the discount factor.
	LR, Gamma float64
	// GradClip caps per-parameter gradient norms (0 disables).
	GradClip float64
	// Seed fixes the weight initialization; actors sample from rngs of
	// their own (Actor.Reset).
	Seed int64
}

// DefaultConfig returns the experiment-scale settings.
func DefaultConfig() Config {
	return Config{Window: 10, Hidden: []int{64, 32}, LR: 1e-3, Gamma: 0.99, GradClip: 5, Seed: 1}
}

type step struct {
	state  []float64
	action int
	valid  int
	reward float64
}

// Scheduler is the scalar-reward policy-gradient learner: the policy
// network, its optimizer and the REINFORCE update. It picks nothing itself —
// every decision, trained or evaluated, is an Actor's.
type Scheduler struct {
	cfg Config
	enc encode.Config
	net *nn.Sequential // state -> logits -> softmax probabilities
	opt *nn.Adam
}

// New builds a scalar-RL scheduler for the given system.
func New(sys cluster.Config, cfg Config) *Scheduler {
	if cfg.Window <= 0 {
		cfg.Window = 10
	}
	if cfg.Gamma <= 0 || cfg.Gamma > 1 {
		cfg.Gamma = 0.99
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 32}
	}
	enc := encode.NewConfig(cfg.Window, sys.Capacities)
	r := enc.Resources()
	if cfg.Weights == nil {
		cfg.Weights = make([]float64, r)
		for i := range cfg.Weights {
			cfg.Weights[i] = 1 / float64(r)
		}
	}
	if len(cfg.Weights) != r {
		panic(fmt.Sprintf("rl: %d reward weights for %d resources", len(cfg.Weights), r))
	}
	// Weight initialization is the one draw from the seed's stream.
	rng := rand.New(rand.NewSource(cfg.Seed))
	layers := []nn.Layer{}
	in := enc.StateDim()
	for _, h := range cfg.Hidden {
		layers = append(layers, nn.NewDense(in, h, nn.HeInit, rng), nn.NewLeakyReLU(0.01))
		in = h
	}
	layers = append(layers, nn.NewDense(in, cfg.Window, nn.XavierInit, rng), nn.NewSoftmax())
	return &Scheduler{
		cfg: cfg,
		enc: enc,
		net: nn.NewSequential(enc.StateDim(), layers...),
		opt: nn.NewAdam(cfg.LR),
	}
}

// reward is the fixed-weight scalar recorded for a step: sum_r w_r * util_r
// after hypothetically starting the chosen job (if it fits) — the immediate
// effect of the selection under the static priorities.
func (s *Scheduler) reward(ctx *sched.PickContext, action int) float64 {
	cl := ctx.Cluster
	j := ctx.Window[action]
	fits := cl.CanFit(j.Demand)
	total := 0.0
	for r := 0; r < cl.NumResources(); r++ {
		used := cl.Used(r)
		if fits {
			used += j.Demand[r]
		}
		total += s.cfg.Weights[r] * float64(used) / float64(cl.Capacity(r))
	}
	return total
}

// samplePrefix draws an index from probs[:valid] renormalized.
func samplePrefix(probs []float64, valid int, rng *rand.Rand) int {
	var sum float64
	for _, p := range probs[:valid] {
		sum += p
	}
	if sum <= 0 {
		return rng.Intn(valid)
	}
	x := rng.Float64() * sum
	for i, p := range probs[:valid] {
		x -= p
		if x <= 0 {
			return i
		}
	}
	return valid - 1
}

// IngestTrajectory applies one REINFORCE update over an actor-collected
// episode and returns the mean policy loss (0 for an empty episode).
func (s *Scheduler) IngestTrajectory(t *Trajectory) float64 {
	steps := t.steps
	n := len(steps)
	if n == 0 {
		return 0
	}
	// Discounted returns.
	returns := make([]float64, n)
	g := 0.0
	for t := n - 1; t >= 0; t-- {
		g = steps[t].reward + s.cfg.Gamma*g
		returns[t] = g
	}
	// Standardized advantages (mean-zero baseline).
	mean := 0.0
	for _, r := range returns {
		mean += r
	}
	mean /= float64(n)
	variance := 0.0
	for _, r := range returns {
		d := r - mean
		variance += d * d
	}
	std := math.Sqrt(variance / float64(n))
	if std < 1e-8 {
		std = 1
	}

	totalLoss := 0.0
	for t, st := range steps {
		adv := (returns[t] - mean) / std
		probs := s.net.Forward(nil, st.state, 1)
		loss, grad := prefixNLLGrad(probs, st.action, st.valid, adv)
		totalLoss += loss
		s.net.Backward(nil, grad, 1)
	}
	params := s.net.Params()
	for _, p := range params {
		nn.Scale(p.Grad, 1/float64(n))
	}
	if s.cfg.GradClip > 0 {
		nn.ClipGrads(params, s.cfg.GradClip)
	}
	s.opt.Step(params)
	return totalLoss / float64(n)
}

// ReleaseTraining ends a training: it drops what only REINFORCE updates
// read — the policy network's gradients and the optimizer's moments and step
// count — and keeps the weights, so every pick and the saved model file stay
// what they were. The state section still round-trips through ReadState,
// with no moments. Training the scheduler further is fine-tuning from its
// weights with a fresh optimizer. Call it with no update in flight.
func (s *Scheduler) ReleaseTraining() {
	for _, p := range s.net.Params() {
		p.Grad = nil
	}
	s.opt = nn.NewAdam(s.cfg.LR)
}

// prefixNLLGrad computes L = -adv * log(p_a / S) with S = sum(probs[:valid])
// and its gradient with respect to the probability vector. Restricting to
// the valid prefix keeps the policy correct when the queue is shorter than
// the window.
func prefixNLLGrad(probs []float64, action, valid int, adv float64) (float64, []float64) {
	const floor = 1e-12
	var sum float64
	for _, p := range probs[:valid] {
		sum += p
	}
	if sum < floor {
		sum = floor
	}
	pa := probs[action]
	if pa < floor {
		pa = floor
	}
	loss := -adv * math.Log(pa/sum)
	grad := make([]float64, len(probs))
	for i := 0; i < valid; i++ {
		grad[i] = adv / sum
	}
	grad[action] -= adv / pa
	return loss, grad
}
