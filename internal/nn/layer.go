package nn

import (
	"math"
	"math/rand"

	"repro/internal/nn/kernel"
)

// Param is a learnable tensor with its accumulated gradient. Optimizers
// update Value from Grad; Grad is accumulated across Backward calls until
// the optimizer zeroes it. Grad is nil until something accumulates into it:
// the first Backward through the parameter's layer allocates it (Dense,
// Conv1D), or a holder that accumulates by hand gives it one. So a network
// that only runs forward passes — an inference clone, a loaded model, a
// training agent whose replicas take the backward passes — holds its values
// and nothing more.
//
// A Param additionally carries an optional snapshot of Value
// (snapshot.go): Snapshot materializes a stable copy that concurrent readers
// may alias while the live Value keeps training, and Publish refreshes that
// copy at a synchronization point chosen by the caller. Params that are
// never snapshotted pay nothing.
type Param struct {
	Name  string
	Value Vec
	Grad  Vec

	// snap is the published copy-on-write view of Value, lazily allocated
	// by Snapshot.
	snap Vec

	// packed, on the W of a packed-only Dense, is the layer's packed copy,
	// the one place its values live: Value is nil (Dense).
	packed *kernel.Packed
}

// NewParam allocates a parameter of n elements named name: the value, and
// no gradient yet.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, Value: make(Vec, n)}
}

// size returns the number of values p holds, in Value or in its layer's
// packed copy.
func (p *Param) size() int {
	if p.packed != nil {
		in, out := p.packed.Shape()
		return in * out
	}
	return len(p.Value)
}

// grad returns p's gradient, allocating it zeroed on first use: what a
// layer's Backward and the optimizer accumulate into and read.
func (p *Param) grad() Vec {
	if p.Grad == nil {
		p.Grad = make(Vec, len(p.Value))
	}
	return p.Grad
}

// ZeroGrad clears the accumulated gradient; one that was never allocated is
// already zero.
func (p *Param) ZeroGrad() { Fill(p.Grad, 0) }

// Layer is a differentiable transformation of a minibatch of bsz row-major
// samples: x holds bsz rows of the layer's input width back to back and the
// result holds bsz rows of the output width. A single sample is a batch of
// one; row k of a batched Forward is bitwise equal to the bsz=1 result for
// that row under either kernel set.
//
// Forward and Backward write their result into dst and return it. dst == nil
// selects a lazily-grown layer-owned buffer, which stays valid until the next
// call on the same layer and must be treated as read-only — a layer may route
// its backward pass through it (LeakyReLU routes on the output sign). Layers
// copy whatever they need of x, so callers may reuse or mutate their input
// slice between Forward and Backward.
//
// Backward must follow a Forward of the same bsz, with the gradient of the
// loss with respect to that Forward's output; it accumulates parameter
// gradients summed over the batch rows and returns the gradient with respect
// to the input. Layers keep their forward state, so a Layer value must not be
// shared by concurrent passes. After warm-up neither call allocates.
//
// The interface is closed: clone is unexported, so every Layer is one of this
// package's types and SharedClone and SnapshotClone cannot fail.
type Layer interface {
	Forward(dst, x Vec, bsz int) Vec
	Backward(dst, grad Vec, bsz int) Vec
	Params() []*Param
	// OutSize reports the per-sample output width for a per-sample input
	// of width in. It lets Sequential validate composition at build time.
	OutSize(in int) int
	// clone returns a structural copy with fresh forward state whose
	// parameters are view's image of the receiver's (clone.go).
	clone(view func(*Param) *Param) Layer
}

// Init is a weight-initialization scheme.
type Init int

// Supported initializations. HeInit suits rectifier activations (used for
// the paper's leaky-ReLU stacks); XavierInit suits tanh/linear layers.
const (
	HeInit Init = iota
	XavierInit
	ZeroInit
)

// initWeights fills w (treated as fanOut x fanIn) according to scheme. A nil
// rng draws nothing and leaves w as allocated, zero: the layer of a network
// whose values are about to be replaced, a model file's load.
func initWeights(w Vec, fanIn, fanOut int, scheme Init, rng *rand.Rand) {
	if rng == nil {
		return
	}
	switch scheme {
	case ZeroInit:
		Fill(w, 0)
	case XavierInit:
		// Uniform(-a, a) with a = sqrt(6/(fanIn+fanOut)).
		a := math.Sqrt(6.0 / float64(fanIn+fanOut))
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * a
		}
	default: // HeInit
		std := math.Sqrt(2.0 / float64(fanIn))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
	}
}
