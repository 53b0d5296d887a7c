package nn

import "fmt"

// Sequential chains layers, feeding each output into the next layer through
// the children's layer-owned buffers; only the final result lands in dst.
type Sequential struct {
	Layers []Layer
}

// NewSequential validates that the layers compose for the given input size
// and returns the network. inSize <= 0 skips validation (useful when the
// caller wires sizes dynamically).
func NewSequential(inSize int, layers ...Layer) *Sequential {
	if inSize > 0 {
		n := inSize
		for i, l := range layers {
			func() {
				defer func() {
					if r := recover(); r != nil {
						panic(fmt.Sprintf("nn: Sequential layer %d rejects input size %d: %v", i, n, r))
					}
				}()
				n = l.OutSize(n)
			}()
		}
	}
	return &Sequential{Layers: layers}
}

// Forward runs the bsz rows of x through every layer in order, writing the
// final output into dst (nil selects the last layer's own buffer).
func (s *Sequential) Forward(dst, x Vec, bsz int) Vec {
	last := len(s.Layers) - 1
	for i, l := range s.Layers {
		d := Vec(nil)
		if i == last {
			d = dst
		}
		x = l.Forward(d, x, bsz)
	}
	if dst != nil && last < 0 {
		copy(dst, x)
		return dst
	}
	return x
}

// BackwardBatchNoInput propagates gradients like Backward but elides the first
// layer's input-gradient computation when that layer supports it (Dense).
// For networks whose input is data — the DFP state, measurement, and goal
// modules — dL/dx of the first layer is never consumed, and skipping it
// removes one full matrix-matrix product from every training step.
func (s *Sequential) BackwardBatchNoInput(grad Vec, bsz int) {
	for i := len(s.Layers) - 1; i >= 1; i-- {
		grad = s.Layers[i].Backward(nil, grad, bsz)
	}
	if len(s.Layers) == 0 {
		return
	}
	if d, ok := s.Layers[0].(*Dense); ok && bsz > 1 {
		d.BackwardBatchParams(grad, bsz)
		return
	}
	s.Layers[0].Backward(nil, grad, bsz)
}

// Backward propagates the output gradient through the layers in reverse,
// writing the gradient with respect to the network input into dst (nil
// selects the first layer's own buffer).
func (s *Sequential) Backward(dst, grad Vec, bsz int) Vec {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		d := Vec(nil)
		if i == 0 {
			d = dst
		}
		grad = s.Layers[i].Backward(d, grad, bsz)
	}
	if dst != nil && len(s.Layers) == 0 {
		copy(dst, grad)
		return dst
	}
	return grad
}

// Params returns all learnable parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (s *Sequential) clone(view func(*Param) *Param) Layer {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		layers[i] = l.clone(view)
	}
	return &Sequential{Layers: layers}
}

// OutSize implements Layer, so Sequentials can nest.
func (s *Sequential) OutSize(in int) int {
	for _, l := range s.Layers {
		in = l.OutSize(in)
	}
	return in
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.Value)
	}
	return n
}
