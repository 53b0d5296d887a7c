package nn

// shadowParam returns a Param aliasing p's Value storage, with no gradient
// storage of its own (see SharedClone).
func shadowParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Value}
}

// SharedClone returns a copy of l that shares parameter Values with l but
// owns its forward-pass state, so the copy can run forward passes
// concurrently with other clones against the same weights. A clone has no
// gradient storage: most are made for inference (rollout actors) and never
// run Backward. A holder that does — a data-parallel training worker — gives
// each of the clone's params a private Grad of its Value's length first and
// reduces those into the master gradient before the optimizer step. Like
// SnapshotClone it is Layer.clone under a param view, each layer type's case
// written next to the type.
func SharedClone(l Layer) Layer { return l.clone(shadowParam) }
