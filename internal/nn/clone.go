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
// minibatch training). Like SnapshotClone it is Layer.clone under a param
// view, each layer type's case written next to the type.
func SharedClone(l Layer) Layer { return l.clone(shadowParam) }
