package nn

import (
	"fmt"
	"math/rand"
)

// Conv1D is a one-dimensional convolution over a channel-major input layout
// ([ch0 pos0..posL-1, ch1 pos0..posL-1, ...]). It exists to reproduce the
// paper's Figure 3 ablation, which compares the original DFP's convolutional
// state module against MRSch's MLP state module. A batch runs the row kernel
// per sample over a layer-owned copy of the batch input.
type Conv1D struct {
	InCh, OutCh int
	InLen       int
	Kernel      int
	Stride      int
	outLen      int
	W           *Param // OutCh x InCh x Kernel
	B           *Param // OutCh

	inBuf  Vec // layer-owned copy of the last forward input (lastB rows)
	outBuf Vec
	ginBuf Vec
	lastB  int
}

// NewConv1D builds a convolution layer, He-initialized from rng (a nil rng
// leaves the kernel zero). Output length is floor((inLen-kernel)/stride)+1;
// it panics if the geometry is infeasible.
func NewConv1D(inCh, inLen, outCh, kernel, stride int, rng *rand.Rand) *Conv1D {
	if kernel <= 0 || stride <= 0 || inLen < kernel {
		panic(fmt.Sprintf("nn: NewConv1D bad geometry inLen=%d kernel=%d stride=%d", inLen, kernel, stride))
	}
	outLen := (inLen-kernel)/stride + 1
	c := &Conv1D{
		InCh: inCh, OutCh: outCh, InLen: inLen,
		Kernel: kernel, Stride: stride, outLen: outLen,
		W: NewParam(fmt.Sprintf("conv1d_%dx%dx%d_w", outCh, inCh, kernel), outCh*inCh*kernel),
		B: NewParam(fmt.Sprintf("conv1d_%d_b", outCh), outCh),
	}
	initWeights(c.W.Value, inCh*kernel, outCh, HeInit, rng)
	return c
}

// OutLen reports the spatial length of the output per channel.
func (c *Conv1D) OutLen() int { return c.outLen }

func (c *Conv1D) wAt(oc, ic, k int) int { return (oc*c.InCh+ic)*c.Kernel + k }

func (c *Conv1D) inDim() int  { return c.InCh * c.InLen }
func (c *Conv1D) outDim() int { return c.OutCh * c.outLen }

// Forward convolves bsz row-major samples of InCh*InLen values each.
func (c *Conv1D) Forward(dst, x Vec, bsz int) Vec {
	if bsz <= 0 || len(x) != bsz*c.inDim() {
		panic(fmt.Sprintf("nn: Conv1D.Forward got %d inputs, want %d x %d", len(x), bsz, c.inDim()))
	}
	c.inBuf = Ensure(c.inBuf, len(x))
	copy(c.inBuf, x)
	c.lastB = bsz
	if dst == nil {
		c.outBuf = Ensure(c.outBuf, bsz*c.outDim())
		dst = c.outBuf
	}
	if len(dst) != bsz*c.outDim() {
		panic(fmt.Sprintf("nn: Conv1D.Forward dst len %d, want %d x %d", len(dst), bsz, c.outDim()))
	}
	for bi := 0; bi < bsz; bi++ {
		c.forwardRow(dst[bi*c.outDim():(bi+1)*c.outDim()], c.inBuf[bi*c.inDim():(bi+1)*c.inDim()])
	}
	return dst
}

func (c *Conv1D) forwardRow(out, x Vec) {
	for oc := 0; oc < c.OutCh; oc++ {
		for p := 0; p < c.outLen; p++ {
			s := c.B.Value[oc]
			base := p * c.Stride
			for ic := 0; ic < c.InCh; ic++ {
				in := x[ic*c.InLen:]
				for k := 0; k < c.Kernel; k++ {
					s += c.W.Value[c.wAt(oc, ic, k)] * in[base+k]
				}
			}
			out[oc*c.outLen+p] = s
		}
	}
}

// Backward accumulates kernel/bias gradients summed over rows, allocating
// them on the first call, and writes input gradients into dst.
func (c *Conv1D) Backward(dst, grad Vec, bsz int) Vec {
	if c.lastB != bsz {
		panic(fmt.Sprintf("nn: Conv1D.Backward bsz %d, forward saw %d", bsz, c.lastB))
	}
	if len(grad) != bsz*c.outDim() {
		panic(fmt.Sprintf("nn: Conv1D.Backward got %d grads, want %d x %d", len(grad), bsz, c.outDim()))
	}
	if dst == nil {
		c.ginBuf = Ensure(c.ginBuf, bsz*c.inDim())
		dst = c.ginBuf
	}
	if len(dst) != bsz*c.inDim() {
		panic(fmt.Sprintf("nn: Conv1D.Backward dst len %d, want %d x %d", len(dst), bsz, c.inDim()))
	}
	Fill(dst, 0)
	for bi := 0; bi < bsz; bi++ {
		c.backwardRow(dst[bi*c.inDim():(bi+1)*c.inDim()],
			grad[bi*c.outDim():(bi+1)*c.outDim()],
			c.inBuf[bi*c.inDim():(bi+1)*c.inDim()])
	}
	return dst
}

func (c *Conv1D) backwardRow(gin, grad, x Vec) {
	gw, gb := c.W.grad(), c.B.grad()
	for oc := 0; oc < c.OutCh; oc++ {
		for p := 0; p < c.outLen; p++ {
			g := grad[oc*c.outLen+p]
			if g == 0 {
				continue
			}
			gb[oc] += g
			base := p * c.Stride
			for ic := 0; ic < c.InCh; ic++ {
				in := x[ic*c.InLen:]
				ginCh := gin[ic*c.InLen:]
				for k := 0; k < c.Kernel; k++ {
					wi := c.wAt(oc, ic, k)
					gw[wi] += g * in[base+k]
					ginCh[base+k] += g * c.W.Value[wi]
				}
			}
		}
	}
}

// Params returns kernel and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

func (c *Conv1D) clone(view func(*Param) *Param) Layer {
	return &Conv1D{
		InCh: c.InCh, OutCh: c.OutCh, InLen: c.InLen,
		Kernel: c.Kernel, Stride: c.Stride, outLen: c.outLen,
		W: view(c.W), B: view(c.B),
	}
}

// OutSize implements Layer.
func (c *Conv1D) OutSize(in int) int {
	if in != c.inDim() {
		panic(fmt.Sprintf("nn: Conv1D.OutSize input %d, layer expects %d", in, c.inDim()))
	}
	return c.outDim()
}

// MaxPool1D downsamples each channel by taking the maximum over
// non-overlapping windows of size Pool, keeping a per-row argmax record for
// Backward.
type MaxPool1D struct {
	Ch, InLen, Pool int
	outLen          int

	argmax []int // winner index per output element, batch-relative
	outBuf Vec
	ginBuf Vec
	lastB  int
}

// NewMaxPool1D builds a max-pool layer; trailing elements that do not fill a
// complete window are dropped (TensorFlow "valid" semantics).
func NewMaxPool1D(ch, inLen, pool int) *MaxPool1D {
	if pool <= 0 || inLen < pool {
		panic(fmt.Sprintf("nn: NewMaxPool1D bad geometry inLen=%d pool=%d", inLen, pool))
	}
	return &MaxPool1D{Ch: ch, InLen: inLen, Pool: pool, outLen: inLen / pool}
}

// OutLen reports the pooled spatial length per channel.
func (m *MaxPool1D) OutLen() int { return m.outLen }

func (m *MaxPool1D) inDim() int  { return m.Ch * m.InLen }
func (m *MaxPool1D) outDim() int { return m.Ch * m.outLen }

// Forward pools bsz row-major samples, recording argmax indices for the
// backward pass.
func (m *MaxPool1D) Forward(dst, x Vec, bsz int) Vec {
	if bsz <= 0 || len(x) != bsz*m.inDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.Forward got %d inputs, want %d x %d", len(x), bsz, m.inDim()))
	}
	if cap(m.argmax) < bsz*m.outDim() {
		m.argmax = make([]int, bsz*m.outDim())
	}
	m.argmax = m.argmax[:bsz*m.outDim()]
	m.lastB = bsz
	if dst == nil {
		m.outBuf = Ensure(m.outBuf, bsz*m.outDim())
		dst = m.outBuf
	}
	if len(dst) != bsz*m.outDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.Forward dst len %d, want %d x %d", len(dst), bsz, m.outDim()))
	}
	for bi := 0; bi < bsz; bi++ {
		xr := x[bi*m.inDim() : (bi+1)*m.inDim()]
		dr := dst[bi*m.outDim() : (bi+1)*m.outDim()]
		ar := m.argmax[bi*m.outDim() : (bi+1)*m.outDim()]
		for ch := 0; ch < m.Ch; ch++ {
			in := xr[ch*m.InLen:]
			for p := 0; p < m.outLen; p++ {
				best := p * m.Pool
				for k := 1; k < m.Pool; k++ {
					if in[p*m.Pool+k] > in[best] {
						best = p*m.Pool + k
					}
				}
				dr[ch*m.outLen+p] = in[best]
				ar[ch*m.outLen+p] = bi*m.inDim() + ch*m.InLen + best
			}
		}
	}
	return dst
}

// Backward routes each gradient to the position that won the max.
func (m *MaxPool1D) Backward(dst, grad Vec, bsz int) Vec {
	if m.lastB != bsz {
		panic(fmt.Sprintf("nn: MaxPool1D.Backward bsz %d, forward saw %d", bsz, m.lastB))
	}
	if len(grad) != bsz*m.outDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.Backward got %d grads, want %d x %d", len(grad), bsz, m.outDim()))
	}
	if dst == nil {
		m.ginBuf = Ensure(m.ginBuf, bsz*m.inDim())
		dst = m.ginBuf
	}
	if len(dst) != bsz*m.inDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.Backward dst len %d, want %d x %d", len(dst), bsz, m.inDim()))
	}
	Fill(dst, 0)
	for i, g := range grad {
		dst[m.argmax[i]] += g
	}
	return dst
}

// Params implements Layer (no parameters).
func (m *MaxPool1D) Params() []*Param { return nil }

func (m *MaxPool1D) clone(func(*Param) *Param) Layer {
	return &MaxPool1D{Ch: m.Ch, InLen: m.InLen, Pool: m.Pool, outLen: m.outLen}
}

// OutSize implements Layer.
func (m *MaxPool1D) OutSize(in int) int {
	if in != m.inDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.OutSize input %d, layer expects %d", in, m.inDim()))
	}
	return m.outDim()
}
