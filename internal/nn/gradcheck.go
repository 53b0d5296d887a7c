package nn

import "math"

// GradCheck compares analytic parameter gradients against central finite
// differences for an arbitrary scalar loss function. loss must run a full
// forward pass and return the scalar loss *without* mutating parameters;
// backward must populate parameter gradients for the same input. It returns
// the maximum relative error observed over all checked parameter elements.
//
// It is used by the test suites of this package and of internal/dfp to prove
// that hand-wired topologies (e.g. DFP's dueling streams) backpropagate
// correctly — the substitute for trusting a DL framework's autograd.
func GradCheck(params []*Param, loss func() float64, backward func(), eps float64, maxElems int) float64 {
	if eps <= 0 {
		eps = 1e-5
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	backward()
	worst := 0.0
	for _, p := range params {
		n := len(p.Value)
		stride := 1
		if maxElems > 0 && n > maxElems {
			stride = n / maxElems
		}
		for i := 0; i < n; i += stride {
			orig := p.Value[i]
			p.Value[i] = orig + eps
			lp := loss()
			p.Value[i] = orig - eps
			lm := loss()
			p.Value[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.grad()[i]
			denom := math.Max(1e-8, math.Abs(num)+math.Abs(ana))
			rel := math.Abs(num-ana) / denom
			if rel > worst && math.Abs(num-ana) > 1e-7 {
				worst = rel
			}
		}
	}
	return worst
}
