package dfp

import (
	"bytes"

	"repro/internal/nn"
)

// ReplayStateWords reports the words the replay keeps for its stored states
// and the words the same states take dense.
func (a *Agent) ReplayStateWords() (kept, dense int) {
	for _, e := range a.replay.buf[:a.replay.len()] {
		kept += len(e.State)
		dense += len(e.State.appendTo(nil))
	}
	return kept, dense
}

// TrainScratch reports what the agent holds for its gradient steps: the
// step engine's workers, and the parameters of the agent's own layers that
// hold a gradient.
func (a *Agent) TrainScratch() (workers, grads int) {
	for _, p := range a.params {
		if p.Grad != nil {
			grads++
		}
	}
	return len(a.workers), grads
}

// OptimizerFresh reports whether the agent's optimizer holds nothing: no
// moment vector and a zero step count, the train state a new Adam writes.
func (a *Agent) OptimizerFresh() bool {
	return bytes.Equal(nn.AppendTrainState(nil, a.params, a.opt), nn.AppendTrainState(nil, a.params, nn.NewAdam(a.cfg.LR)))
}
