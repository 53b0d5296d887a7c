package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// quadratic builds params for minimizing f(w) = sum (w_i - c_i)^2, with the
// gradient gradQuadratic accumulates into by hand.
func quadratic(n int, rng *rand.Rand) (*Param, Vec) {
	p := NewParam("w", n)
	p.Grad = make(Vec, n)
	c := make(Vec, n)
	for i := range c {
		c[i] = rng.NormFloat64()
		p.Value[i] = rng.NormFloat64() * 3
	}
	return p, c
}

func gradQuadratic(p *Param, c Vec) float64 {
	var loss float64
	for i := range p.Value {
		d := p.Value[i] - c[i]
		loss += d * d
		p.Grad[i] += 2 * d
	}
	return loss
}

func TestAdamConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, c := quadratic(10, rng)
	opt := NewAdam(0.1)
	for i := 0; i < 400; i++ {
		gradQuadratic(p, c)
		opt.Step([]*Param{p})
	}
	if l := gradQuadratic(p, c); l > 1e-4 {
		t.Fatalf("Adam did not converge: loss %v", l)
	}
}

func TestStepZeroesGradients(t *testing.T) {
	p := NewParam("w", 3)
	p.Grad = Vec{0, 2, 0}
	NewAdam(0.1).Step([]*Param{p})
	for _, g := range p.Grad {
		if g != 0 {
			t.Fatal("Adam.Step left gradients set")
		}
	}
}

// TestAdamPiecesAreStepScaled: BeginStep, one ClipFactor per parameter and
// ApplyRange over any cut of each parameter, in any order, are StepScaled to
// the bit — values, both moments and the zeroed gradient — at lengths on
// every side of the kernels' vector width, clipped and not.
func TestAdamPiecesAreStepScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 101} {
		whole, pieces := NewParam("w", n), NewParam("w", n)
		whole.Grad, pieces.Grad = make(Vec, n), make(Vec, n)
		for i := range whole.Value {
			whole.Value[i] = rng.NormFloat64()
		}
		copy(pieces.Value, whole.Value)
		optW, optP := NewAdam(0.01), NewAdam(0.01)
		for step := 0; step < 4; step++ {
			scale, maxNorm := 1/float64(step+1), float64(step%2)*0.5 // clips on odd steps
			for i := range whole.Grad {
				whole.Grad[i] = rng.NormFloat64() * 3
			}
			copy(pieces.Grad, whole.Grad)
			optW.StepScaled([]*Param{whole}, scale, maxNorm)

			optP.BeginStep([]*Param{pieces})
			f := ClipFactor(pieces.Grad, scale, maxNorm)
			c1, c2 := rng.Intn(n+1), rng.Intn(n+1)
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			optP.ApplyRange(pieces, pieces.Grad, c2, n, f)
			optP.ApplyRange(pieces, pieces.Grad, 0, c1, f)
			optP.ApplyRange(pieces, pieces.Grad, c1, c2, f)

			for name, pair := range map[string][2]Vec{
				"value": {pieces.Value, whole.Value}, "grad": {pieces.Grad, whole.Grad},
				"m": {optP.m[pieces], optW.m[whole]}, "v": {optP.v[pieces], optW.v[whole]},
			} {
				for i := range pair[1] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("n=%d step %d cuts %d,%d: %s[%d] = %v in pieces, %v whole", n, step, c1, c2, name, i, pair[0][i], pair[1][i])
					}
				}
			}
		}
	}
}

// TestFoldNormIsTheThreePasses: under the active kernel set, FoldNorm over two
// shadows and ClipFactorOf give the gradient, the zeroed shadows and the clip
// factor that AddTo, Fill and ClipFactor gave — what dfp's step tail ran
// before it folded in one pass — at lengths 0…67, with -0 gradients.
func TestFoldNormIsTheThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	draw := func(n int) Vec {
		v := make(Vec, n)
		for i := range v {
			if v[i] = rng.NormFloat64() * 3; rng.Intn(5) == 0 {
				v[i] = math.Copysign(0, -1)
			}
		}
		return v
	}
	for n := 0; n <= 67; n++ {
		grad, sh1, sh2 := draw(n), draw(n), draw(n)
		want, w1, w2 := Copy(grad), Copy(sh1), Copy(sh2)
		AddTo(want, w1)
		Fill(w1, 0)
		AddTo(want, w2)
		Fill(w2, 0)
		wantF := ClipFactor(want, 1.0/32, 0.5)

		FoldNorm(grad, sh1)
		gotF := ClipFactorOf(FoldNorm(grad, sh2), 1.0/32, 0.5)
		if math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Fatalf("n=%d: clip factor %v, three passes give %v", n, gotF, wantF)
		}
		if got, want := FoldNorm(grad, nil), L2Norm(grad); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: FoldNorm(grad, nil) = %v, L2Norm = %v", n, got, want)
		}
		for i := range want {
			if math.Float64bits(grad[i]) != math.Float64bits(want[i]) || math.Float64bits(sh1[i]) != 0 || math.Float64bits(sh2[i]) != 0 {
				t.Fatalf("n=%d: element %d: grad %v (want %v), shadows %v %v (want +0)", n, i, grad[i], want[i], sh1[i], sh2[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FoldNorm took a shadow of another length")
		}
	}()
	FoldNorm(make(Vec, 8), make(Vec, 9))
}

func TestClipGrads(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad = Vec{30, 40}
	ClipGrads([]*Param{p}, 5)
	if n := L2Norm(p.Grad); math.Abs(n-5) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 5", n)
	}
}

func TestMSE(t *testing.T) {
	l, g := MSE(Vec{1, 2}, Vec{0, 0})
	if !almostEq(l, 2.5, 1e-12) {
		t.Fatalf("MSE = %v, want 2.5", l)
	}
	if !almostEq(g[0], 1, 1e-12) || !almostEq(g[1], 2, 1e-12) {
		t.Fatalf("MSE grad = %v", g)
	}
}

func TestMaskedMSE(t *testing.T) {
	l, g := MaskedMSE(Vec{1, 5, 2}, Vec{0, 0, 0}, []bool{true, false, true})
	if !almostEq(l, 2.5, 1e-12) {
		t.Fatalf("MaskedMSE = %v, want 2.5", l)
	}
	if g[1] != 0 {
		t.Fatal("masked position received gradient")
	}
	// All-false mask yields zero loss and gradient, not NaN.
	l, g = MaskedMSE(Vec{1}, Vec{0}, []bool{false})
	if l != 0 || g[0] != 0 {
		t.Fatal("all-false mask should be zero loss/grad")
	}
}

func TestSaveLoadWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(4, NewDense(4, 3, HeInit, rng), NewLeakyReLU(0.01), NewDense(3, 2, HeInit, rng))
	in := Vec{0.1, 0.2, 0.3, 0.4}
	want := net.Forward(nil, in, 1)

	var buf bytes.Buffer
	if err := SaveWeights(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}

	rng2 := rand.New(rand.NewSource(1234))
	net2 := NewSequential(4, NewDense(4, 3, HeInit, rng2), NewLeakyReLU(0.01), NewDense(3, 2, HeInit, rng2))
	if err := LoadWeights(&buf, net2.Params()); err != nil {
		t.Fatal(err)
	}
	got := net2.Forward(nil, in, 1)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-15) {
			t.Fatalf("restored output %v, want %v", got, want)
		}
	}
}

// A file that is wrong only at its end — the last parameter's name, its
// length, one NaN or one Inf in its last value — is refused before anything
// is copied: every parameter keeps its bits.
func TestLoadWeightsIsAllOrNothing(t *testing.T) {
	build := func(seed int64) *Sequential {
		rng := rand.New(rand.NewSource(seed))
		return NewSequential(4, NewDense(4, 3, HeInit, rng), NewLeakyReLU(0.01), NewDense(3, 2, HeInit, rng))
	}
	src := build(9).Params()
	last := len(src) - 1
	damage := map[string]func(ps []*Param){
		"last param renamed": func(ps []*Param) { ps[last].Name = "someone_else" },
		"last param longer":  func(ps []*Param) { ps[last].Value = append(ps[last].Value, 0) },
		"one NaN":            func(ps []*Param) { ps[last].Value[len(ps[last].Value)-1] = math.NaN() },
		"one -Inf":           func(ps []*Param) { ps[last].Value[len(ps[last].Value)-1] = math.Inf(-1) },
		"NaN in the middle":  func(ps []*Param) { ps[1].Value[0] = math.NaN() },
	}
	for name, hurt := range damage {
		saved := make([]*Param, len(src))
		for i, p := range src {
			saved[i] = &Param{Name: p.Name, Value: Copy(p.Value)}
		}
		hurt(saved)
		var buf bytes.Buffer
		if err := SaveWeights(&buf, saved); err != nil {
			t.Fatal(err)
		}
		dst := build(1234).Params()
		var before [][]uint64
		for _, p := range dst {
			bits := make([]uint64, len(p.Value))
			for k, v := range p.Value {
				bits[k] = math.Float64bits(v)
			}
			before = append(before, bits)
		}
		if err := LoadWeights(&buf, dst); err == nil {
			t.Fatalf("%s: LoadWeights accepted the file", name)
		}
		for i, p := range dst {
			for k, v := range p.Value {
				if math.Float64bits(v) != before[i][k] {
					t.Fatalf("%s: param %d (%s) value %d overwritten by a refused file", name, i, p.Name, k)
				}
			}
		}
	}
}

func TestLoadWeightsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(4, NewDense(4, 3, HeInit, rng))
	var buf bytes.Buffer
	if err := SaveWeights(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewSequential(5, NewDense(5, 3, HeInit, rng))
	if err := LoadWeights(&buf, other.Params()); err == nil {
		t.Fatal("expected error loading mismatched architecture")
	}
}
