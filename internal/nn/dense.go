package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/nn/kernel"
)

// Dense is a fully-connected layer: y = W*x + b, with W stored row-major
// (out x in). It is the workhorse of every network in the paper: the state,
// measurement and goal modules, the dueling streams, and the policy-gradient
// baseline are all stacks of Dense layers.
//
// A batch of B row-major samples runs through one cache-blocked, 4-way-
// unrolled matrix-matrix kernel instead of B matrix-vector loops. The forward
// input is copied into a layer-owned buffer, so callers may mutate their
// input slice between Forward and Backward.
type Dense struct {
	In, Out int
	W       *Param // len In*Out, row-major (row = output neuron)
	B       *Param // len Out

	inBuf  Vec // layer-owned copy of the last forward input (lastB rows)
	outBuf Vec
	ginBuf Vec
	wtBuf  Vec // transposed weights (in x out), rebuilt per batched backward
	lastB  int // rows retained by the last forward (0 = none yet)

	// pack, when not nil, is what bsz=1 forwards read: own, the layer's
	// packed copy of W and B (Pack), or the copy of the layer it shares its
	// weights with (SharePack). packScr is this layer's scratch for reading
	// it, so layers that share one copy may forward concurrently.
	pack    *kernel.Packed
	own     kernel.Packed // Pack's buffer, one for the layer's life
	packScr kernel.PackedScratch
}

// NewDense constructs an in->out fully-connected layer with the given
// initialization scheme, drawn from rng; a nil rng leaves the weights zero.
func NewDense(in, out int, scheme Init, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: NewDense invalid dims %dx%d", in, out))
	}
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("dense_%dx%d_w", in, out), in*out),
		B:   NewParam(fmt.Sprintf("dense_%dx%d_b", in, out), out),
	}
	initWeights(d.W.Value, in, out, scheme, rng)
	return d
}

// Forward computes W*x+b for bsz row-major samples: x is bsz*In values, the
// result is bsz*Out values.
func (d *Dense) Forward(dst, x Vec, bsz int) Vec {
	if bsz <= 0 || len(x) != bsz*d.In {
		panic(fmt.Sprintf("nn: Dense.Forward got %d inputs, want %d x %d", len(x), bsz, d.In))
	}
	d.inBuf = Ensure(d.inBuf, bsz*d.In)
	copy(d.inBuf, x)
	d.lastB = bsz
	if dst == nil {
		d.outBuf = Ensure(d.outBuf, bsz*d.Out)
		dst = d.outBuf
	}
	if len(dst) != bsz*d.Out {
		panic(fmt.Sprintf("nn: Dense.Forward dst len %d, want %d x %d", len(dst), bsz, d.Out))
	}
	// The forward matmul is a kernel-set call: dst = x·Wᵀ + b through the
	// process-global set (pure-Go reference or CPUID-dispatched SIMD). A
	// packed layer's single sample reads the packed copy instead — the same
	// bits, without the work on x's zero runs.
	if bsz == 1 && d.pack != nil {
		kern.PackedForward(dst, d.inBuf, d.pack, &d.packScr)
		return dst
	}
	kern.DenseForward(dst, d.inBuf, d.W.Value, d.B.Value, d.In, d.Out, bsz)
	return dst
}

// Pack builds, or refreshes in place, the layer's packed copy of W and B for
// the active kernel set's one-sample forward (kernel.Set.Pack) and reports
// whether single-sample Forward calls now read it; when the set has no packed
// path or declines the layer, they stay on the dense kernel. Either way a
// Forward returns the same bits. The copy does not follow W and B: the caller
// packs again once they have changed and before the next single-sample
// Forward. A rollout actor does, from Reset to Reset; a dfp.Model packs its
// layer once, and its readers read that copy (SharePack) instead of packing
// their own. A layer whose copy is shared is never packed again.
func (d *Dense) Pack() bool {
	d.pack = nil
	if kern.Pack != nil && kern.Pack(&d.own, d.W.Value, d.B.Value, d.In, d.Out) {
		d.pack = &d.own
	}
	return d.pack != nil
}

// SharePack has d's single-sample forwards read src's packed copy through
// scratch of d's own; while src has none, d stays on the dense kernel. d must
// read src's weights (a SharedClone of src: it panics otherwise), and src
// must not be packed again while d reads: the copy has many readers and no
// writer.
func (d *Dense) SharePack(src *Dense) {
	if d.In != src.In || d.Out != src.Out || &d.W.Value[0] != &src.W.Value[0] || &d.B.Value[0] != &src.B.Value[0] {
		panic("nn: Dense.SharePack from a layer whose weights this one does not read")
	}
	d.pack = src.pack
}

// Backward accumulates dL/dW and dL/db summed over the bsz rows of grad,
// allocating them on the first call, and writes bsz rows of dL/dx into dst.
func (d *Dense) Backward(dst, grad Vec, bsz int) Vec {
	if d.lastB != bsz {
		panic(fmt.Sprintf("nn: Dense.Backward bsz %d, forward saw %d", bsz, d.lastB))
	}
	if len(grad) != bsz*d.Out {
		panic(fmt.Sprintf("nn: Dense.Backward got %d grads, want %d x %d", len(grad), bsz, d.Out))
	}
	if dst == nil {
		d.ginBuf = Ensure(d.ginBuf, bsz*d.In)
		dst = d.ginBuf
	}
	if len(dst) != bsz*d.In {
		panic(fmt.Sprintf("nn: Dense.Backward dst len %d, want %d x %d", len(dst), bsz, d.In))
	}
	if bsz == 1 {
		denseBackwardRow(dst, grad, d.inBuf, d.W.Value, d.W.grad(), d.B.grad(), d.In, d.Out)
		return dst
	}
	d.accumBatchGrads(grad, bsz)
	d.inputGradBatch(dst, grad, bsz)
	return dst
}

// BackwardBatchParams accumulates parameter gradients for a batch without
// computing input gradients. It is meant for a network's first layer, whose
// input is data rather than an upstream activation, so dL/dx is never
// consumed — eliding it removes a full matrix-matrix product from the
// backward pass.
func (d *Dense) BackwardBatchParams(grad Vec, bsz int) {
	if d.lastB != bsz {
		panic(fmt.Sprintf("nn: Dense.Backward bsz %d, forward saw %d", bsz, d.lastB))
	}
	if len(grad) != bsz*d.Out {
		panic(fmt.Sprintf("nn: Dense.Backward got %d grads, want %d x %d", len(grad), bsz, d.Out))
	}
	d.accumBatchGrads(grad, bsz)
}

// denseBackwardRow is the exact-order backward Dense runs at bsz=1:
// parameter gradients accumulate element-wise in output order — the order
// dfp's sample-at-a-time reference step (engine_test.go) and the REINFORCE
// baseline are pinned to. Zero
// output-gradients skip their row entirely,
// which the sparse dueling backward in internal/dfp relies on.
func denseBackwardRow(gin, grad, x, w, gw, gb Vec, in, out int) {
	gi := gin[:in]
	Fill(gi, 0)
	for o, g := range grad[:out] {
		if g == 0 {
			continue
		}
		gb[o] += g
		row := w[o*in : (o+1)*in]
		grow := gw[o*in : (o+1)*in]
		i := 0
		for ; i+4 <= in; i += 4 {
			grow[i] += g * x[i]
			grow[i+1] += g * x[i+1]
			grow[i+2] += g * x[i+2]
			grow[i+3] += g * x[i+3]
			gi[i] += g * row[i]
			gi[i+1] += g * row[i+1]
			gi[i+2] += g * row[i+2]
			gi[i+3] += g * row[i+3]
		}
		for ; i < in; i++ {
			grow[i] += g * x[i]
			gi[i] += g * row[i]
		}
	}
}

// accumBatchGrads performs gb += Σ_rows grad and gw += gradᵀ·x through the
// active kernel set's sample-blocked accumulation kernel.
func (d *Dense) accumBatchGrads(grad Vec, bsz int) {
	kern.AccumGrads(d.W.grad(), d.B.grad(), grad, d.inBuf, d.In, d.Out, bsz)
}

// inputGradBatch computes gin = grad·W through a freshly transposed weight
// copy: with Wᵀ stored in x out, every input gradient becomes a sequential
// dot product for the kernel set's sample-blocked matmul. The transpose
// costs one in·out pass per batched backward — 1/bsz of the product it
// accelerates.
func (d *Dense) inputGradBatch(gin, grad Vec, bsz int) {
	d.wtBuf = Ensure(d.wtBuf, d.In*d.Out)
	kern.Transpose(d.wtBuf, d.W.Value, d.In, d.Out)
	kern.InputGrad(gin, grad, d.wtBuf, d.In, d.Out, bsz)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func (d *Dense) clone(view func(*Param) *Param) Layer {
	return &Dense{In: d.In, Out: d.Out, W: view(d.W), B: view(d.B)}
}

// OutSize implements Layer.
func (d *Dense) OutSize(in int) int {
	if in != d.In {
		panic(fmt.Sprintf("nn: Dense.OutSize input %d, layer expects %d", in, d.In))
	}
	return d.Out
}
