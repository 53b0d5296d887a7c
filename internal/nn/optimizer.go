package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba), the de-facto default for
// DFP training in the original implementation.
//
// One update is three pieces, so that a caller may spread it over
// goroutines: BeginStep opens it, ClipFactor gives one parameter's gradient
// multiplier, ApplyRange updates a range of one parameter. Step and
// StepScaled are those pieces in a loop — there is one update arithmetic.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param]Vec

	invB1c, invB2c float64 // the open step's reciprocal bias corrections
}

// NewAdam returns an Adam optimizer; zero-valued hyperparameters take the
// standard defaults (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]Vec), v: make(map[*Param]Vec),
	}
}

// Step applies one update to every parameter and zeroes the gradients:
// StepScaled with scale 1 and no clipping, which is bitwise the unscaled update (x*1.0 is exact for every float64).
func (o *Adam) Step(params []*Param) { o.StepScaled(params, 1, 0) }

// StepScaled applies one Adam update treating each parameter's effective
// gradient as scale*Grad, clipped to maxNorm when maxNorm > 0 — folding
// what would otherwise be two extra passes (Scale, ClipGrads) into the
// update loop. It matches Scale+ClipGrads+Step to floating-point
// reassociation.
func (o *Adam) StepScaled(params []*Param, scale, maxNorm float64) {
	o.BeginStep(params)
	for _, p := range params {
		g := p.grad()
		o.ApplyRange(p, g, 0, len(p.Value), ClipFactor(g, scale, maxNorm))
	}
}

// BeginStep opens the next update: it advances the step counter, computes
// the bias corrections once, and gives every parameter that has none yet
// its moment vectors. After it, and until the next BeginStep, ApplyRange
// calls on disjoint ranges may run concurrently.
func (o *Adam) BeginStep(params []*Param) {
	o.t++
	o.invB1c = 1 / (1 - math.Pow(o.Beta1, float64(o.t)))
	o.invB2c = 1 / (1 - math.Pow(o.Beta2, float64(o.t)))
	for _, p := range params {
		if o.m[p] == nil {
			o.m[p] = make(Vec, len(p.Value))
			o.v[p] = make(Vec, len(p.Value))
		}
	}
}

// ClipFactor returns the multiplier that turns grad into the effective
// gradient of one parameter: scale, shrunk so that the scaled gradient's L2
// norm does not exceed maxNorm when maxNorm > 0.
func ClipFactor(grad Vec, scale, maxNorm float64) float64 {
	if maxNorm > 0 {
		return ClipFactorOf(L2Norm(grad), scale, maxNorm)
	}
	return scale
}

// ClipFactorOf is ClipFactor for a caller that already holds the gradient's
// L2 norm — FoldNorm's, taken while the gradient was being folded.
func ClipFactorOf(norm, scale, maxNorm float64) float64 {
	if n := scale * norm; maxNorm > 0 && n > maxNorm && n > 0 {
		return scale * (maxNorm / n)
	}
	return scale
}

// FoldNorm adds a worker's shadow gradient into grad, zeroes the shadow and
// returns the L2 norm of what grad now holds, in one pass of the active
// kernel set (kernel.Set.FoldNorm) instead of AddTo, Fill and L2Norm's three:
// the same gradient, the same zeros and, in every set, L2Norm's own bits. A
// nil shadow folds nothing and only takes the norm.
func FoldNorm(grad, shadow Vec) float64 {
	if shadow != nil && len(shadow) != len(grad) {
		panic(fmt.Sprintf("nn: FoldNorm length mismatch %d vs %d", len(grad), len(shadow)))
	}
	return math.Sqrt(kern.FoldNorm(grad, shadow))
}

// ApplyRange applies the open step to elements [lo,hi) of p with effective
// gradient f*grad, and zeroes that range of grad. grad is p's length: p.Grad
// itself, or a gradient a caller accumulated elsewhere — internal/dfp's
// first replica worker's, into which the others were folded — so that p
// needs none of its own. The update runs through
// the active kernel set's fused Adam kernel: bias corrections are hoisted
// into reciprocal multiplies and gradient zeroing is fused into the same
// pass, leaving one unavoidable sqrt+divide per element. The kernel is
// element-wise — its scalar tail computes what its vector body does — so
// how a parameter is cut into ranges does not change a bit of the result.
// The moment vectors are looked up on every call, never remembered:
// a train state's apply (ReadTrainState) replaces them.
func (o *Adam) ApplyRange(p *Param, grad Vec, lo, hi int, f float64) {
	kern.AdamStep(p.Value[lo:hi], grad[lo:hi], o.m[p][lo:hi], o.v[p][lo:hi],
		f, o.LR, o.Beta1, o.Beta2, 1-o.Beta1, 1-o.Beta2, o.invB1c, o.invB2c, o.Eps)
}

// ClipGrads rescales every parameter's gradient so its L2 norm does not
// exceed max. Useful to stabilize early RL training.
func ClipGrads(params []*Param, max float64) {
	for _, p := range params {
		ClipNorm(p.Grad, max)
	}
}
