package nn

import "fmt"

// MSE returns the mean-squared-error loss between pred and target together
// with dL/dpred. The paper trains DFP by MSE between predicted and realized
// future measurement changes (Figure 4 reports this loss).
func MSE(pred, target Vec) (loss float64, grad Vec) {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: MSE length mismatch %d vs %d", len(pred), len(target)))
	}
	grad = make(Vec, len(pred))
	n := float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}

// MaskedMSE computes MSE over only the positions where mask is true; other
// positions contribute zero loss and zero gradient. DFP regresses only the
// output slots of the action actually taken, so the remaining action slots
// must be masked out of the loss.
func MaskedMSE(pred, target Vec, mask []bool) (loss float64, grad Vec) {
	grad = make(Vec, len(pred))
	loss = MaskedMSEInto(grad, pred, target, mask)
	return loss, grad
}

// MaskedMSEInto is MaskedMSE writing the gradient into grad (which must have
// pred's length) and returning the loss — the zero-allocation variant used
// by the batched training engine.
func MaskedMSEInto(grad, pred, target Vec, mask []bool) (loss float64) {
	if len(pred) != len(target) || len(pred) != len(mask) || len(grad) != len(pred) {
		panic(fmt.Sprintf("nn: MaskedMSE length mismatch %d/%d/%d/%d", len(grad), len(pred), len(target), len(mask)))
	}
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	if n == 0 {
		Fill(grad, 0)
		return 0
	}
	fn := float64(n)
	for i := range pred {
		if !mask[i] {
			grad[i] = 0
			continue
		}
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / fn
	}
	return loss / fn
}
