package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lossThrough builds a scalar loss from a network: squared distance of the
// output from a fixed target, for a fixed input.
func lossThrough(net Layer, in, target Vec) (loss func() float64, backward func()) {
	loss = func() float64 {
		out := net.Forward(nil, in, 1)
		l, _ := MSE(out, target)
		return l
	}
	backward = func() {
		out := net.Forward(nil, in, 1)
		_, g := MSE(out, target)
		net.Backward(nil, g, 1)
	}
	return loss, backward
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, ZeroInit, rng)
	copy(d.W.Value, Vec{1, 2, 3, 4}) // rows: [1 2], [3 4]
	copy(d.B.Value, Vec{10, 20})
	out := d.Forward(nil, Vec{1, 1}, 1)
	if out[0] != 13 || out[1] != 27 {
		t.Fatalf("Forward = %v, want [13 27]", out)
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(5, 3, HeInit, rng)
	in := make(Vec, 5)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	target := Vec{0.1, -0.2, 0.3}
	loss, backward := lossThrough(d, in, target)
	if worst := GradCheck(d.Params(), loss, backward, 1e-5, 0); worst > 1e-4 {
		t.Fatalf("Dense gradient check failed: max rel err %v", worst)
	}
}

func TestDenseInputGradient(t *testing.T) {
	// Verify dL/dx numerically too, since composed networks depend on it.
	rng := rand.New(rand.NewSource(2))
	d := NewDense(4, 2, HeInit, rng)
	in := Vec{0.5, -0.3, 0.8, 0.1}
	target := Vec{1, -1}
	out := d.Forward(nil, in, 1)
	_, g := MSE(out, target)
	gin := d.Backward(nil, g, 1)
	eps := 1e-6
	for i := range in {
		orig := in[i]
		in[i] = orig + eps
		lp, _ := MSE(d.Forward(nil, in, 1), target)
		in[i] = orig - eps
		lm, _ := MSE(d.Forward(nil, in, 1), target)
		in[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-gin[i]) > 1e-5 {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, gin[i], num)
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	l := NewLeakyReLU(0.1)
	out := l.Forward(nil, Vec{-2, 0, 3}, 1)
	if out[0] != -0.2 || out[1] != 0 || out[2] != 3 {
		t.Fatalf("LeakyReLU forward = %v", out)
	}
	gin := l.Backward(nil, Vec{1, 1, 1}, 1)
	if gin[0] != 0.1 || gin[2] != 1 {
		t.Fatalf("LeakyReLU backward = %v", gin)
	}
}

// leakyBranching is the sign branch Forward used to take, kept as the oracle
// for its table-lookup replacement.
func leakyBranching(alpha, v float64) float64 {
	if v > 0 {
		return v
	}
	return alpha * v
}

// The branch-free LeakyReLU is the branching one bit for bit — signed zeros,
// subnormals, infinities and NaNs of either sign and quietness included — into
// the layer's own buffer and into a caller's.
func TestLeakyReLUSelectIsExact(t *testing.T) {
	table := Vec{
		0, math.Copysign(0, -1), 1, -1, 3.5, -3.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF), // largest subnormals
		math.Float64frombits(0x0010000000000000), math.Float64frombits(0x8010000000000000), // smallest normals
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001), // quiet NaNs, both signs
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000001), // signalling NaNs
		1e-310, -1e-310, 1e308, -1e308,
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 4096; i++ {
		table = append(table, math.Float64frombits(r.Uint64()), r.NormFloat64())
	}
	for _, alpha := range []float64{0.01, 0.1, 1, 0.3} {
		l := &LeakyReLU{Alpha: alpha, lastN: -1}
		own := l.Forward(nil, table, 1)
		dst := l.Forward(make(Vec, len(table)), table, 1)
		for i, v := range table {
			want := math.Float64bits(leakyBranching(alpha, v))
			if math.Float64bits(own[i]) != want || math.Float64bits(dst[i]) != want || math.Float64bits(l.outBuf[i]) != want {
				t.Fatalf("alpha %v, input %v (%#x): got %#x / %#x, branching form %#x",
					alpha, v, math.Float64bits(v), math.Float64bits(own[i]), math.Float64bits(dst[i]), want)
			}
		}
	}
}

func TestLeakyReLUDefaultAlpha(t *testing.T) {
	if NewLeakyReLU(0).Alpha != 0.01 {
		t.Fatal("default alpha should be 0.01")
	}
	if NewLeakyReLU(-5).Alpha != 0.01 {
		t.Fatal("negative alpha should fall back to 0.01")
	}
}

func TestSoftmaxLayerJacobian(t *testing.T) {
	s := NewSoftmax()
	in := Vec{0.3, -1.2, 0.8, 0.0}
	// Check J^T g numerically for an arbitrary upstream gradient.
	g := Vec{0.7, -0.1, 0.4, 0.2}
	s.Forward(nil, in, 1)
	gin := s.Backward(nil, g, 1)
	eps := 1e-6
	pp, pm := make(Vec, len(in)), make(Vec, len(in))
	for i := range in {
		orig := in[i]
		in[i] = orig + eps
		SoftmaxInto(pp, in)
		in[i] = orig - eps
		SoftmaxInto(pm, in)
		in[i] = orig
		num := (Dot(pp, g) - Dot(pm, g)) / (2 * eps)
		if math.Abs(num-gin[i]) > 1e-6 {
			t.Fatalf("softmax grad[%d] = %v, numeric %v", i, gin[i], num)
		}
	}
}

func TestConv1DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D(1, 4, 1, 2, 1, rng)
	copy(c.W.Value, Vec{1, -1})
	copy(c.B.Value, Vec{0.5})
	out := c.Forward(nil, Vec{1, 2, 3, 5}, 1)
	// windows: (1-2), (2-3), (3-5) each +0.5
	want := Vec{-0.5, -0.5, -1.5}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Fatalf("conv out = %v, want %v", out, want)
		}
	}
	if c.OutLen() != 3 {
		t.Fatalf("OutLen = %d, want 3", c.OutLen())
	}
}

func TestConv1DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewSequential(12,
		NewConv1D(2, 6, 3, 3, 1, rng), // in 2ch x 6 -> 3ch x 4
		NewLeakyReLU(0.01),
		NewDense(12, 2, HeInit, rng),
	)
	in := make(Vec, 12)
	for i := range in {
		in[i] = rng.NormFloat64() * 0.5
	}
	loss, backward := lossThrough(net, in, Vec{0.2, -0.3})
	if worst := GradCheck(net.Params(), loss, backward, 1e-5, 0); worst > 1e-4 {
		t.Fatalf("Conv1D gradient check failed: %v", worst)
	}
}

func TestConv1DStride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D(1, 10, 1, 4, 2, rng)
	if c.OutLen() != 4 { // (10-4)/2+1
		t.Fatalf("OutLen = %d, want 4", c.OutLen())
	}
	out := c.Forward(nil, make(Vec, 10), 1)
	if len(out) != 4 {
		t.Fatalf("len(out) = %d, want 4", len(out))
	}
}

func TestMaxPool1D(t *testing.T) {
	m := NewMaxPool1D(2, 4, 2)
	out := m.Forward(nil, Vec{1, 3, 2, 0 /* ch0 */, 5, 4, 7, 8 /* ch1 */}, 1)
	want := Vec{3, 2, 5, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pool out = %v, want %v", out, want)
		}
	}
	gin := m.Backward(nil, Vec{1, 1, 1, 1}, 1)
	// Gradient must land on the argmax positions only.
	wantG := Vec{0, 1, 1, 0, 1, 0, 0, 1}
	for i := range wantG {
		if gin[i] != wantG[i] {
			t.Fatalf("pool grad = %v, want %v", gin, wantG)
		}
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(8,
		NewDense(8, 6, HeInit, rng),
		NewLeakyReLU(0.01),
		NewDense(6, 4, HeInit, rng),
		NewLeakyReLU(0.01),
		NewDense(4, 2, HeInit, rng),
	)
	if got := net.OutSize(8); got != 2 {
		t.Fatalf("OutSize = %d, want 2", got)
	}
	if net.NumParams() != 8*6+6+6*4+4+4*2+2 {
		t.Fatalf("NumParams = %d", net.NumParams())
	}
	out := net.Forward(nil, make(Vec, 8), 1)
	if len(out) != 2 {
		t.Fatalf("forward output len = %d", len(out))
	}
}

func TestSequentialRejectsBadComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible layers")
		}
	}()
	NewSequential(8, NewDense(8, 6, HeInit, rng), NewDense(7, 2, HeInit, rng))
}

func TestTrainingConvergesOnXOR(t *testing.T) {
	// End-to-end sanity: a 2-layer net must learn XOR, proving forward,
	// backward, and the optimizer cooperate.
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(2,
		NewDense(2, 8, HeInit, rng),
		NewLeakyReLU(0.01),
		NewDense(8, 1, XavierInit, rng),
	)
	opt := NewAdam(0.02)
	xs := []Vec{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []Vec{{0}, {1}, {1}, {0}}
	var last float64
	for epoch := 0; epoch < 800; epoch++ {
		last = 0
		for i, x := range xs {
			out := net.Forward(nil, x, 1)
			l, g := MSE(out, ys[i])
			last += l
			net.Backward(nil, g, 1)
		}
		opt.Step(net.Params())
	}
	if last/4 > 0.02 {
		t.Fatalf("XOR did not converge: final avg loss %v", last/4)
	}
}

// TestGradientsAllocateOnFirstBackward pins the lazy-gradient rule: a
// constructor-built Dense or Conv1D holds its values and no gradient, a
// SharedClone that only runs forward passes never gets one (nor does its
// original), and the first Backward — at a batch of one or a batched one —
// allocates it once, at the parameter's length, and later ones accumulate
// into the same buffer.
func TestGradientsAllocateOnFirstBackward(t *testing.T) {
	builds := []struct {
		name  string
		in    int
		layer func(*rand.Rand) Layer
	}{
		{"dense", 7, func(r *rand.Rand) Layer { return NewDense(7, 5, HeInit, r) }},
		{"conv1d", 2 * 9, func(r *rand.Rand) Layer { return NewConv1D(2, 9, 3, 3, 2, r) }},
		{"dense-first-of-sequential", 7, func(r *rand.Rand) Layer {
			return NewSequential(7, NewDense(7, 5, HeInit, r), NewLeakyReLU(0.01), NewDense(5, 3, HeInit, r))
		}},
	}
	rng := rand.New(rand.NewSource(43))
	noGrads := func(label string, ps []*Param) {
		t.Helper()
		for _, p := range ps {
			if p.Grad != nil {
				t.Fatalf("%s: %s holds a %d-element gradient, want none", label, p.Name, len(p.Grad))
			}
		}
	}
	for _, b := range builds {
		for _, bsz := range []int{1, 4} {
			label := fmt.Sprintf("%s bsz=%d", b.name, bsz)
			l := b.layer(rng)
			noGrads(label+" as built", l.Params())

			clone := SharedClone(l)
			for _, n := range []int{1, bsz} {
				clone.Forward(nil, randVec(rng, n*b.in), n)
			}
			noGrads(label+" inference clone", clone.Params())
			noGrads(label+" original of an inference clone", l.Params())

			out := l.Forward(nil, randVec(rng, bsz*b.in), bsz)
			if s, ok := l.(*Sequential); ok && bsz > 1 {
				s.BackwardBatchNoInput(randVec(rng, len(out)), bsz)
			} else {
				l.Backward(nil, randVec(rng, len(out)), bsz)
			}
			var first []*float64
			for _, p := range l.Params() {
				if len(p.Grad) != len(p.Value) {
					t.Fatalf("%s: after the first Backward %s has a %d-element gradient, want %d", label, p.Name, len(p.Grad), len(p.Value))
				}
				first = append(first, &p.Grad[0])
			}
			for _, n := range []int{bsz, 1, 3} {
				out := l.Forward(nil, randVec(rng, n*b.in), n)
				l.Backward(nil, randVec(rng, len(out)), n)
			}
			for i, p := range l.Params() {
				if &p.Grad[0] != first[i] {
					t.Fatalf("%s: a later Backward gave %s a new gradient buffer", label, p.Name)
				}
			}
			noGrads(label+" inference clone after its original trained", clone.Params())
		}
	}
}
