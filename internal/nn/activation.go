package nn

import (
	"fmt"
	"math"
)

// LeakyReLU applies f(x) = x for x>0, alpha*x otherwise. The paper's state
// module uses leaky rectifiers between its fully-connected layers (§III-A).
// Backward routes on the sign of the retained *output* (for alpha>0 the
// output sign equals the input sign), so no input copy is needed and the
// caller may freely reuse its input slice. The element-wise kernel is
// shape-agnostic: a batch is just a longer vector, and bsz is not inspected.
type LeakyReLU struct {
	Alpha float64

	outBuf Vec // layer-owned copy of the last forward output
	ginBuf Vec
	lastN  int // elements retained by the last forward (-1 = none yet)
}

// infBits is +Inf's bit pattern, the largest a positive float64's gets.
const infBits = 0x7FF0000000000000

// NewLeakyReLU returns a leaky rectifier with the conventional alpha=0.01
// slope when alpha<=0 is given.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if alpha <= 0 {
		alpha = 0.01
	}
	return &LeakyReLU{Alpha: alpha, lastN: -1}
}

// Forward applies the activation into dst. nil selects the layer-owned
// output buffer, which Backward's sign-routing reads — per the Layer
// contract the returned buffer must not be mutated before Backward.
func (l *LeakyReLU) Forward(dst, x Vec, bsz int) Vec {
	l.outBuf = Ensure(l.outBuf, len(x))
	l.lastN = len(x)
	// The sign of a pre-activation is a coin flip, so the slope is looked up,
	// not branched on: with u = bits(v)-1, v > 0 exactly when u is below
	// +Inf's bit pattern as an unsigned number and has no sign bit — zero
	// wraps to all ones, negatives and -0 keep their sign bit, NaNs lie
	// above +Inf — and v*1 is v bit for bit.
	slope := [2]float64{l.Alpha, 1}
	out := l.outBuf[:len(x)]
	for i, v := range x {
		u := math.Float64bits(v) - 1
		out[i] = slope[((u-infBits)&^u)>>63] * v
	}
	if dst == nil {
		return l.outBuf
	}
	if len(dst) != len(x) {
		panic(fmt.Sprintf("nn: LeakyReLU dst len %d, want %d", len(dst), len(x)))
	}
	copy(dst, l.outBuf)
	return dst
}

// Backward routes gradients through the active/leaky regions into dst.
func (l *LeakyReLU) Backward(dst, grad Vec, bsz int) Vec {
	if l.lastN < 0 {
		panic("nn: LeakyReLU.Backward before Forward")
	}
	if len(grad) != l.lastN {
		panic(fmt.Sprintf("nn: LeakyReLU.Backward got %d grads, want %d", len(grad), l.lastN))
	}
	if dst == nil {
		l.ginBuf = Ensure(l.ginBuf, len(grad))
		dst = l.ginBuf
	}
	if len(dst) != len(grad) {
		panic(fmt.Sprintf("nn: LeakyReLU dst len %d, want %d", len(dst), len(grad)))
	}
	out := l.outBuf[:l.lastN]
	for i, g := range grad {
		if out[i] > 0 {
			dst[i] = g
		} else {
			dst[i] = l.Alpha * g
		}
	}
	return dst
}

// Params implements Layer (no parameters).
func (l *LeakyReLU) Params() []*Param { return nil }

func (l *LeakyReLU) clone(func(*Param) *Param) Layer { return &LeakyReLU{Alpha: l.Alpha, lastN: -1} }

// OutSize implements Layer.
func (l *LeakyReLU) OutSize(in int) int { return in }

// SoftmaxLayer turns logits into a probability distribution. Backward
// applies the full softmax Jacobian, so it composes with any upstream loss
// gradient (the policy-gradient baseline feeds dL/dp directly). Each of the
// bsz rows is normalized independently.
type SoftmaxLayer struct {
	outBuf Vec // layer-owned copy of the last output distribution(s)
	ginBuf Vec
	lastN  int // total elements
	lastB  int // rows
}

// NewSoftmax returns a softmax output layer.
func NewSoftmax() *SoftmaxLayer { return &SoftmaxLayer{lastN: -1} }

// Forward computes a numerically-stable softmax of each row into dst (nil
// selects the layer-owned output buffer Backward reads).
func (s *SoftmaxLayer) Forward(dst, x Vec, bsz int) Vec {
	if bsz <= 0 || len(x)%bsz != 0 {
		panic(fmt.Sprintf("nn: Softmax batch %d does not divide input %d", bsz, len(x)))
	}
	n := len(x) / bsz
	s.outBuf = Ensure(s.outBuf, len(x))
	s.lastN, s.lastB = len(x), bsz
	for b := 0; b < bsz; b++ {
		SoftmaxInto(s.outBuf[b*n:(b+1)*n], x[b*n:(b+1)*n])
	}
	if dst == nil {
		return s.outBuf
	}
	if len(dst) != len(x) {
		panic(fmt.Sprintf("nn: Softmax dst len %d, want %d", len(dst), len(x)))
	}
	copy(dst, s.outBuf)
	return dst
}

// Backward computes J^T grad into dst, where J is each row's softmax
// Jacobian.
func (s *SoftmaxLayer) Backward(dst, grad Vec, bsz int) Vec {
	if s.lastN < 0 {
		panic("nn: Softmax.Backward before Forward")
	}
	if len(grad) != s.lastN || bsz != s.lastB {
		panic(fmt.Sprintf("nn: Softmax.Backward got %d grads (%d rows), want %d (%d rows)",
			len(grad), bsz, s.lastN, s.lastB))
	}
	if dst == nil {
		s.ginBuf = Ensure(s.ginBuf, len(grad))
		dst = s.ginBuf
	}
	n := len(grad) / bsz
	for b := 0; b < bsz; b++ {
		p := s.outBuf[b*n : (b+1)*n]
		g := grad[b*n : (b+1)*n]
		d := dst[b*n : (b+1)*n]
		dot := Dot(g, p)
		for i := range p {
			d[i] = p[i] * (g[i] - dot)
		}
	}
	return dst
}

// Params implements Layer (no parameters).
func (s *SoftmaxLayer) Params() []*Param { return nil }

func (s *SoftmaxLayer) clone(func(*Param) *Param) Layer { return NewSoftmax() }

// OutSize implements Layer.
func (s *SoftmaxLayer) OutSize(in int) int { return in }
