package nn

// shadowParam returns a Param aliasing p's Value storage with a private
// gradient buffer. Workers read weights through the shared Value slice and
// accumulate into their own Grad, which the training engine reduces into the
// master gradient before the optimizer step.
func shadowParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: make(Vec, len(p.Grad))}
}

// SharedClone returns a copy of l that shares parameter Values with l but
// owns fresh gradient buffers and forward-pass state, so the copy can run
// concurrent forward/backward passes against the same weights (data-parallel
// minibatch training). The second result reports whether l (and every
// sub-layer) is one of this package's layer types.
func SharedClone(l Layer) (Layer, bool) { return cloneWith(l, shadowParam) }

// cloneWith structurally copies a network, rebuilding each parameter through
// the given view (shadowParam for live-weight clones, snapshotParam for
// published-snapshot clones) with fresh forward state throughout. The first
// sub-layer outside the built-in set fails the whole clone.
func cloneWith(l Layer, view func(*Param) *Param) (Layer, bool) {
	switch t := l.(type) {
	case *Dense:
		return &Dense{In: t.In, Out: t.Out, W: view(t.W), B: view(t.B)}, true
	case *LeakyReLU:
		return &LeakyReLU{Alpha: t.Alpha, lastN: -1}, true
	case *Tanh:
		return NewTanh(), true
	case *SoftmaxLayer:
		return NewSoftmax(), true
	case *Conv1D:
		return &Conv1D{
			InCh: t.InCh, OutCh: t.OutCh, InLen: t.InLen,
			Kernel: t.Kernel, Stride: t.Stride, outLen: t.outLen,
			W: view(t.W), B: view(t.B),
		}, true
	case *MaxPool1D:
		return &MaxPool1D{Ch: t.Ch, InLen: t.InLen, Pool: t.Pool, outLen: t.outLen}, true
	case *Sequential:
		layers := make([]Layer, len(t.Layers))
		for i, child := range t.Layers {
			c, ok := cloneWith(child, view)
			if !ok {
				return nil, false
			}
			layers[i] = c
		}
		return &Sequential{Layers: layers}, true
	case *MultiBranch:
		branches := make([]Branch, len(t.Branches))
		for i, b := range t.Branches {
			c, ok := cloneWith(b.Net, view)
			if !ok {
				return nil, false
			}
			branches[i] = Branch{Ranges: b.Ranges, Net: c}
		}
		return &MultiBranch{InSize: t.InSize, Branches: branches, outSizes: append([]int(nil), t.outSizes...)}, true
	}
	return nil, false
}
