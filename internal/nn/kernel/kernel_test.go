package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

func fill(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
	}
	return s
}

// awkward draws n values two kernels could round differently if their chains
// differed: normals, ±0, subnormals, magnitudes whose products underflow (to
// either zero) or overflow, and — when nonFinite — a sprinkle of NaN and ±Inf.
func awkward(r *rand.Rand, n int, nonFinite bool) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch k := r.Intn(16); {
		case k == 0:
			s[i] = 0
		case k == 1:
			s[i] = math.Copysign(0, -1)
		case k == 2:
			s[i] = math.Float64frombits(uint64(1 + r.Intn(1000)))
		case k == 3:
			s[i] = -math.Float64frombits(uint64(1 + r.Intn(1000)))
		case k == 4:
			s[i] = math.Ldexp(r.NormFloat64(), -600-r.Intn(460))
		case k == 5:
			s[i] = math.Ldexp(r.NormFloat64(), 400+r.Intn(200))
		case k == 6 && nonFinite:
			switch r.Intn(6) {
			case 0:
				s[i] = math.NaN()
			case 1:
				s[i] = math.Inf(1)
			case 2:
				s[i] = math.Inf(-1)
			default:
				s[i] = r.NormFloat64()
			}
		default:
			s[i] = r.NormFloat64()
		}
	}
	return s
}

// differ reports the first index at which got and want are different bits, a
// NaN matching any NaN (which payload an operation on two NaNs keeps is not
// part of the contract), or -1.
func differ(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if i := differ(got, want); i >= 0 {
		t.Fatalf("%s[%d]: got %v (%#x), want %v (%#x)", what, i,
			got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// coefficientRows overwrites grad's columns (the rows of gw) with the skip
// patterns AccumGrads distinguishes, cycling through them: every coefficient
// zero (of either sign), one sample's non-zero, all drawn. Consecutive
// columns therefore pair a skipped row with a live one both ways round, and
// the live ones pair across skipped ones.
func coefficientRows(r *rand.Rand, grad []float64, out, bsz int) {
	for o := 0; o < out; o++ {
		switch pattern := r.Intn(4); pattern {
		case 0, 1:
			keep := -1
			if pattern == 1 {
				keep = r.Intn(bsz)
			}
			for b := 0; b < bsz; b++ {
				if b != keep {
					grad[b*out+o] = math.Copysign(0, float64(1-2*r.Intn(2)))
				}
			}
		}
	}
}

// Shapes deliberately include sizes off every internal stride: every residue
// mod 8 (and, to 17, mod 16, dot1's step), below the 4-wide vector width,
// straddling the 4-way/8-way unrolls, and crossing the forward kernel's output
// tile: 33 and 130 leave a partial output tile after a full one, and 130 runs
// dot4 and dot1 chains longer than 64 elements.
var (
	testDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 31, 33, 64, 130}
	testBsz  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33}
)

// TestCrossSetAgreement holds every form of the accelerated set to Reference
// bit for bit — the forward, the input gradient and the accumulation — at
// every in, out and bsz mod 8, over every zero-coefficient skip pattern, on
// values with ±0, subnormals, underflowing and overflowing products, NaN and
// ±Inf.
func TestCrossSetAgreement(t *testing.T) {
	forms := benchForms()[1:] // each form of the accelerated set
	if len(forms) == 0 {
		t.Skip("no accelerated kernel set on this host")
	}
	defer SetWide(true)
	r := rand.New(rand.NewSource(1))
	for _, in := range testDims {
		for _, out := range testDims {
			for _, bsz := range testBsz {
				for _, nonFinite := range []bool{false, true} {
					crossSetCase(t, forms, r, in, out, bsz, nonFinite)
				}
			}
		}
	}
}

func crossSetCase(t *testing.T, forms []benchForm, r *rand.Rand, in, out, bsz int, nonFinite bool) {
	x, w, b := awkward(r, bsz*in, nonFinite), awkward(r, out*in, nonFinite), awkward(r, out, nonFinite)
	grad := awkward(r, bsz*out, nonFinite)
	coefficientRows(r, grad, out, bsz)
	wt := make([]float64, in*out)
	Reference.Transpose(wt, w, in, out)
	gw0, gb0 := awkward(r, out*in, nonFinite), awkward(r, out, nonFinite)

	dstG, ginG := make([]float64, bsz*out), make([]float64, bsz*in)
	gwG, gbG := append([]float64(nil), gw0...), append([]float64(nil), gb0...)
	Reference.DenseForward(dstG, x, w, b, in, out, bsz)
	Reference.InputGrad(ginG, grad, wt, in, out, bsz)
	Reference.AccumGrads(gwG, gbG, grad, x, in, out, bsz)
	for _, f := range forms {
		SetWide(f.wide)
		what := fmt.Sprintf("%s in=%d out=%d bsz=%d nonfinite=%v", f.name, in, out, bsz, nonFinite)
		dstN, ginN := make([]float64, bsz*out), make([]float64, bsz*in)
		gwN, gbN := append([]float64(nil), gw0...), append([]float64(nil), gb0...)
		f.set.DenseForward(dstN, x, w, b, in, out, bsz)
		f.set.InputGrad(ginN, grad, wt, in, out, bsz)
		f.set.AccumGrads(gwN, gbN, grad, x, in, out, bsz)
		sameBits(t, what+" forward", dstN, dstG)
		sameBits(t, what+" inputgrad", ginN, ginG)
		sameBits(t, what+" gw", gwN, gwG)
		sameBits(t, what+" gb", gbN, gbG)
	}
}

// adamCase is one parameter's Adam inputs and step constants.
type adamCase struct {
	val, grad, m, v                          []float64
	f, lr, beta1, beta2, a1, a2, b1c, b2c, e float64
}

// newAdamCase draws the vectors with draw; v is its absolute value.
func newAdamCase(n int, f float64, draw func(n int) []float64) adamCase {
	const lr, beta1, beta2, eps, t = 3e-4, 0.9, 0.999, 1e-8, 8
	c := adamCase{
		val: draw(n), grad: draw(n), m: draw(n), v: make([]float64, n),
		f: f, lr: lr, beta1: beta1, beta2: beta2, a1: 1 - beta1, a2: 1 - beta2,
		b1c: 1 / (1 - math.Pow(beta1, t)), b2c: 1 / (1 - math.Pow(beta2, t)), e: eps,
	}
	for i, g := range draw(n) {
		c.v[i] = math.Abs(g) // a second moment is nonnegative
	}
	return c
}

func (c adamCase) clone() adamCase {
	c.val, c.grad = append([]float64(nil), c.val...), append([]float64(nil), c.grad...)
	c.m, c.v = append([]float64(nil), c.m...), append([]float64(nil), c.v...)
	return c
}

func (c adamCase) step(s *Set) {
	s.AdamStep(c.val, c.grad, c.m, c.v, c.f, c.lr, c.beta1, c.beta2, c.a1, c.a2, c.b1c, c.b2c, c.e)
}

// TestCrossSetAdam holds the accelerated set's fused Adam step to Reference
// bit for bit — the value, both moments and the zeroed gradient — at every
// length mod 4 on both sides of the vector body, with ±0, subnormal, huge,
// NaN and ±Inf elements.
func TestCrossSetAdam(t *testing.T) {
	native := nativeSet()
	if native == nil {
		t.Skip("no accelerated kernel set on this host")
	}
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 1000} {
		for _, f := range []float64{1, 0.37} {
			for _, nonFinite := range []bool{false, true} {
				g := newAdamCase(n, f, func(n int) []float64 { return awkward(r, n, nonFinite) })
				nc := g.clone()
				g.step(Reference)
				nc.step(native)
				what := fmt.Sprintf("n=%d f=%v nonfinite=%v", n, f, nonFinite)
				sameBits(t, what+" val", nc.val, g.val)
				sameBits(t, what+" m", nc.m, g.m)
				sameBits(t, what+" v", nc.v, g.v)
				for i := range g.grad {
					if math.Float64bits(g.grad[i]) != 0 || math.Float64bits(nc.grad[i]) != 0 {
						t.Fatalf("%s: grad[%d] = %v (go), %v (native); want +0 after fused zeroing", what, i, g.grad[i], nc.grad[i])
					}
				}
			}
		}
	}
}

// oracleTol bounds every set against the textbook loops below, which share no
// lane map, fold or fused step with either: each output one accumulator in
// index order, each product rounded before its add. A set that lost or
// doubled a term, or read the wrong row, misses it by orders of magnitude.
const oracleTol = 1e-12

func nearOracle(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if d, scale := math.Abs(got[i]-want[i]), math.Max(1, math.Abs(want[i])); !(d <= oracleTol*scale) {
			t.Fatalf("%s[%d]: got %v, the textbook loop gives %v (rel err %.3g > %.0g)", what, i, got[i], want[i], d/scale, oracleTol)
		}
	}
}

// TestSetsMatchTextbookLoops holds every set to one-accumulator-per-output
// loops for the forward, the input gradient and the accumulation, and to the
// Adam formula with its divisions, within oracleTol on finite values.
func TestSetsMatchTextbookLoops(t *testing.T) {
	for _, f := range benchForms() {
		t.Run(f.name, func(t *testing.T) {
			SetWide(f.wide)
			defer SetWide(true)
			r := rand.New(rand.NewSource(10))
			for _, in := range testDims {
				for _, out := range testDims {
					for _, bsz := range testBsz {
						textbookCase(t, f.set, r, in, out, bsz)
					}
				}
			}
			for _, n := range []int{1, 3, 4, 5, 17, 1000} {
				for _, gf := range []float64{1, 0.37} {
					c := newAdamCase(n, gf, func(n int) []float64 { return fill(r, n) })
					want := c.clone()
					c.step(f.set)
					for i := range want.val {
						g := want.grad[i] * gf
						m := want.beta1*want.m[i] + (1-want.beta1)*g
						v := want.beta2*want.v[i] + (1-want.beta2)*g*g
						mHat, vHat := m/(1-math.Pow(want.beta1, 8)), v/(1-math.Pow(want.beta2, 8))
						want.val[i] -= want.lr * mHat / (math.Sqrt(vHat) + want.e)
						want.m[i], want.v[i] = m, v
					}
					what := fmt.Sprintf("adam n=%d f=%v", n, gf)
					nearOracle(t, what+" val", c.val, want.val)
					nearOracle(t, what+" m", c.m, want.m)
					nearOracle(t, what+" v", c.v, want.v)
				}
			}
		})
	}
}

func textbookCase(t *testing.T, s *Set, r *rand.Rand, in, out, bsz int) {
	what := fmt.Sprintf("in=%d out=%d bsz=%d", in, out, bsz)
	x, w, b, grad := fill(r, bsz*in), fill(r, out*in), fill(r, out), fill(r, bsz*out)
	coefficientRows(r, grad, out, bsz)
	dst, want := make([]float64, bsz*out), make([]float64, bsz*out)
	gin, wantGin := make([]float64, bsz*in), make([]float64, bsz*in)
	gw, gb := fill(r, out*in), fill(r, out)
	wantGw, wantGb := append([]float64(nil), gw...), append([]float64(nil), gb...)
	for bi := 0; bi < bsz; bi++ {
		for o := 0; o < out; o++ {
			var acc float64
			for i := 0; i < in; i++ {
				acc += float64(w[o*in+i] * x[bi*in+i])
			}
			want[bi*out+o] = acc + b[o]
		}
		for i := 0; i < in; i++ {
			var acc float64
			for o := 0; o < out; o++ {
				acc += float64(grad[bi*out+o] * w[o*in+i])
			}
			wantGin[bi*in+i] = acc
		}
	}
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			acc := wantGw[o*in+i]
			for bi := 0; bi < bsz; bi++ {
				acc += float64(grad[bi*out+o] * x[bi*in+i])
			}
			wantGw[o*in+i] = acc
		}
		for bi := 0; bi < bsz; bi++ {
			wantGb[o] += grad[bi*out+o]
		}
	}
	wt := make([]float64, in*out)
	s.Transpose(wt, w, in, out)
	s.DenseForward(dst, x, w, b, in, out, bsz)
	s.InputGrad(gin, grad, wt, in, out, bsz)
	s.AccumGrads(gw, gb, grad, x, in, out, bsz)
	nearOracle(t, what+" forward", dst, want)
	nearOracle(t, what+" inputgrad", gin, wantGin)
	nearOracle(t, what+" gw", gw, wantGw)
	nearOracle(t, what+" gb", gb, wantGb)
}

// TestBatchRowIdentity checks the contract the serve daemon's byte-identity
// suite rides on: under a fixed set, forward row k of a batch is bitwise
// identical to the same sample pushed through bsz=1, at every batch size.
// In the avx2 set the two sides are different code — a Go loop over dot4 and
// dot1 calls against one assembly call per layer — so the shapes cover every
// in mod 16 residue (dot1 keeps sixteen elements in flight) and every out
// mod 4.
func TestBatchRowIdentity(t *testing.T) {
	ins, outs := []int{130}, []int{32, 130}
	for n := 1; n <= 70; n++ {
		ins = append(ins, n)
	}
	for n := 1; n <= 13; n++ {
		outs = append(outs, n)
	}
	for _, s := range benchSets() {
		t.Run(s.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(3))
			for _, in := range ins {
				for _, out := range outs {
					for _, bsz := range testBsz {
						x := fill(r, bsz*in)
						w := fill(r, out*in)
						b := fill(r, out)
						batch := make([]float64, bsz*out)
						s.DenseForward(batch, x, w, b, in, out, bsz)
						single := make([]float64, out)
						for bi := 0; bi < bsz; bi++ {
							s.DenseForward(single, x[bi*in:(bi+1)*in], w, b, in, out, 1)
							for o := 0; o < out; o++ {
								if batch[bi*out+o] != single[o] {
									t.Fatalf("in=%d out=%d bsz=%d row %d out %d: batch %v != single %v (must be bitwise identical)",
										in, out, bsz, bi, o, batch[bi*out+o], single[o])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestTransposeIsTheNaiveLoop: Transpose is a move, so every set must write
// exactly the naive double loop's Wᵀ, and nothing outside it — at every
// in%4 and out%4 edge and at the shapes the engine transposes.
func TestTransposeIsTheNaiveLoop(t *testing.T) {
	dims := []int{32, 64, 128, 394}
	for n := 1; n <= 13; n++ {
		dims = append(dims, n)
	}
	for _, s := range benchSets() {
		r := rand.New(rand.NewSource(7))
		for _, in := range dims {
			for _, out := range dims {
				w := fill(r, out*in)
				got := make([]float64, in*out+1)
				got[in*out] = math.Pi // one past the end: must survive
				s.Transpose(got[:in*out], w, in, out)
				for o := 0; o < out; o++ {
					for i := 0; i < in; i++ {
						if g, want := got[i*out+o], w[o*in+i]; math.Float64bits(g) != math.Float64bits(want) {
							t.Fatalf("%s in=%d out=%d: wt[%d][%d] = %v, want w[%d][%d] = %v", s.Name, in, out, i, o, g, o, i, want)
						}
					}
				}
				if got[in*out] != math.Pi {
					t.Fatalf("%s in=%d out=%d: wrote past the end of wt", s.Name, in, out)
				}
			}
		}
	}
}

// addFillNorm is what FoldNorm replaces, as nn runs it: AddTo, Fill(0) and
// L2Norm's sum, three passes. It is the oracle and the benchmark's baseline.
func addFillNorm(grad, shadow []float64) float64 {
	if shadow != nil {
		for i := range shadow {
			grad[i] += shadow[i]
		}
		for i := range shadow {
			shadow[i] = 0
		}
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(grad); i += 4 {
		s0 += float64(grad[i] * grad[i])
		s1 += float64(grad[i+1] * grad[i+1])
		s2 += float64(grad[i+2] * grad[i+2])
		s3 += float64(grad[i+3] * grad[i+3])
	}
	for ; i < len(grad); i++ {
		s0 += float64(grad[i] * grad[i])
	}
	return s0 + s1 + s2 + s3
}

// TestFoldNormIsAddFillNorm: in every set, FoldNorm leaves the gradient and
// the shadow exactly as AddTo and Fill do and returns L2Norm's sum to the bit
// — at every length mod 4 on both sides of the vector body, with -0 in both
// operands (-0 + -0 must stay -0, -0 + +0 must not), values whose squares
// underflow or overflow, and with no shadow at all.
func TestFoldNormIsAddFillNorm(t *testing.T) {
	draw := func(r *rand.Rand, n int) []float64 {
		s := fill(r, n)
		for i := range s {
			switch r.Intn(6) {
			case 0:
				s[i] = math.Copysign(0, -1)
			case 1:
				s[i] = 0
			case 2:
				s[i] = math.Ldexp(s[i], -540+r.Intn(1080))
			}
		}
		return s
	}
	for _, s := range benchSets() {
		r := rand.New(rand.NewSource(8))
		for n := 0; n <= 67; n++ {
			for _, withShadow := range []bool{true, false} {
				grad := draw(r, n)
				var shadow []float64
				if withShadow {
					shadow = draw(r, n)
				}
				wantGrad, wantShadow := append([]float64(nil), grad...), append([]float64(nil), shadow...)
				if !withShadow {
					wantShadow = nil
				}
				want := addFillNorm(wantGrad, wantShadow)
				got := s.FoldNorm(grad, shadow)
				what := fmt.Sprintf("%s n=%d shadow=%v", s.Name, n, withShadow)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: sum of squares %v (%#x), three passes give %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for i := range grad {
					if math.Float64bits(grad[i]) != math.Float64bits(wantGrad[i]) {
						t.Fatalf("%s: grad[%d] = %v, AddTo gives %v", what, i, grad[i], wantGrad[i])
					}
				}
				for i, v := range shadow {
					if math.Float64bits(v) != 0 {
						t.Fatalf("%s: shadow[%d] = %v, want +0", what, i, v)
					}
				}
			}
		}
	}
}

// TestSelect: the CPU alone selects the set in use — the native set wherever
// this build has one, Reference otherwise — and it was resolved before any
// init() ran. A default amd64 build on an AVX2+FMA host therefore runs the
// avx2 set, never silently the go set, and a purego build runs the go set.
func TestSelect(t *testing.T) {
	want := nativeSet()
	if want == nil {
		want = Reference
	}
	if Active() != want || Name() != want.Name {
		t.Fatalf("Active() = %q, Name() = %q; want the %q set", Active().Name, Name(), want.Name)
	}
	if Features() == "" {
		t.Fatal(`Features() = ""; want detected features or "none"`)
	}
}

func benchSets() []*Set {
	sets := []*Set{Reference}
	if n := nativeSet(); n != nil {
		sets = append(sets, n)
	}
	return sets
}

// TestFormsAreReported: Features says which forms of the batched kernels the
// probe selected, and "wide" is never claimed without every bit it needs. The log line is what CI's kernel-forms step
// prints.
func TestFormsAreReported(t *testing.T) {
	f := Features()
	t.Logf("kernel set %q, probed: %s", Name(), f)
	wide, narrow := strings.Contains(f, "forms=wide"), strings.Contains(f, "forms=narrow")
	if nativeSet() == nil {
		if wide || narrow {
			t.Fatalf("no native set, yet Features() = %q names its forms", f)
		}
		return
	}
	if wide == narrow {
		t.Fatalf("Features() = %q: want exactly one of forms=wide, forms=narrow", f)
	}
	if got := Name(); got != "avx2" {
		t.Fatalf("Name() = %q: the forms are inside the avx2 set, not a set of their own", got)
	}
	for _, need := range []string{"avx512f", "avx512dq", "avx512vl", "zmm"} {
		if wide && !strings.Contains(f, need) {
			t.Fatalf("Features() = %q claims the 512-bit forms without %s", f, need)
		}
	}
}

// benchForm is one way to run a set's batched kernels: the go set, or the
// avx2 set on its 256-bit or — where the CPU has them — 512-bit forms.
type benchForm struct {
	name string
	set  *Set
	wide bool
}

func benchForms() []benchForm {
	forms := []benchForm{{"go", Reference, false}}
	if n := nativeSet(); n != nil {
		forms = append(forms, benchForm{n.Name + "-narrow", n, false})
		if strings.Contains(Features(), "forms=wide") {
			forms = append(forms, benchForm{n.Name + "-wide", n, true})
		}
	}
	return forms
}

// cyclesPerNs is the clock /proc/cpuinfo reports, for the MAC/cycle metric;
// 0 (no metric) where there is none to read.
func cyclesPerNs() float64 {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "cpu MHz" {
			mhz, _ := strconv.ParseFloat(strings.TrimSpace(val), 64)
			return mhz / 1e3
		}
	}
	return 0
}

// benchShapes are the layers the quick-scale engine runs batched — the state
// module's two hidden layers and the action head — at a worker's shard of the
// minibatch (16) and at serve's smallest tiled batch (4).
var benchShapes = [][3]int{
	{394, 128, 16}, {128, 64, 16}, {64, 120, 16},
	{394, 128, 4}, {128, 64, 4}, {64, 120, 4},
}

// batchedKernels returns the four batched kernels as calls on one in x out
// layer and bsz samples of random data, in the order the benchmark lists them.
func batchedKernels(in, out, bsz int) []struct {
	name string
	call func(s *Set)
} {
	r := rand.New(rand.NewSource(4))
	x, w, bias := fill(r, bsz*in), fill(r, out*in), fill(r, out)
	wt := make([]float64, in*out)
	Reference.Transpose(wt, w, in, out)
	dst, grad := make([]float64, bsz*out), fill(r, bsz*out)
	gin, gw, gb := make([]float64, bsz*in), make([]float64, out*in), make([]float64, out)
	return []struct {
		name string
		call func(s *Set)
	}{
		{"Forward", func(s *Set) { s.DenseForward(dst, x, w, bias, in, out, bsz) }},
		{"InputGrad", func(s *Set) { s.InputGrad(gin, grad, wt, in, out, bsz) }},
		{"Transpose", func(s *Set) { s.Transpose(wt, w, in, out) }},
		{"AccumGrads", func(s *Set) { s.AccumGrads(gw, gb, grad, x, in, out, bsz) }},
	}
}

func BenchmarkDenseKernels(b *testing.B) {
	// The engine's shapes, every form, with the multiply-accumulates a cycle
	// each one sustains.
	ghz := cyclesPerNs()
	for _, shape := range benchShapes {
		in, out, bsz := shape[0], shape[1], shape[2]
		for _, k := range batchedKernels(in, out, bsz) {
			if k.name == "Transpose" {
				continue // one form per set, timed below
			}
			for _, f := range benchForms() {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", k.name, in, out, bsz, f.name), func(b *testing.B) {
					SetWide(f.wide)
					defer SetWide(true)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k.call(f.set)
					}
					if ns := float64(b.Elapsed().Nanoseconds()); ghz > 0 && ns > 0 {
						b.ReportMetric(float64(b.N)*float64(in*out*bsz)/(ns*ghz), "MAC/cycle")
					}
				})
			}
		}
	}
	// A 746-wide first layer, each set as it runs.
	for _, s := range benchSets() {
		for _, k := range batchedKernels(746, 128, 16) {
			b.Run(k.name+"/"+s.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.call(s)
				}
			})
		}
	}
	// One decision's layers, every form: the quick-scale state module's first
	// layer (dense and packed), its second, a 64-wide hidden layer and the
	// action head.
	for _, shape := range [][2]int{{394, 128}, {128, 64}, {64, 64}, {64, 120}} {
		for _, f := range benchForms() {
			benchOneSample(b, f, shape[0], shape[1], ghz)
		}
	}
	for _, f := range benchForms() {
		benchPacked(b, f, 394, 128)
	}
}

// benchOneSample times one encoder-shaped decision (90 % of the units busy)
// through an in→out layer in one form — DenseForward at bsz = 1 — with the
// multiply-accumulates a cycle it sustains when ghz is known.
func benchOneSample(b *testing.B, f benchForm, in, out int, ghz float64) {
	r := rand.New(rand.NewSource(6))
	x := encoderShaped(r, in, 0.9)
	w, bias, dst := fill(r, out*in), fill(r, out), make([]float64, out)
	b.Run(fmt.Sprintf("OneSample/%dx%d/%s", in, out, f.name), func(b *testing.B) {
		SetWide(f.wide)
		defer SetWide(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.set.DenseForward(dst, x, w, bias, in, out, 1)
		}
		if ns := float64(b.Elapsed().Nanoseconds()); ghz > 0 && ns > 0 {
			b.ReportMetric(float64(b.N)*float64(in*out)/(ns*ghz), "MAC/cycle")
		}
	})
}

// benchPacked times the same decision through a first layer's packed copy in
// one form (Packed), batches of 4 and 16 of them packed and dense
// (PackedBatch, DenseBatch) and, once per set, the re-lay itself (Pack); a
// set without a packed path has no rows.
func benchPacked(b *testing.B, f benchForm, in, out int) {
	s := f.set
	if s.Pack == nil {
		return
	}
	r := rand.New(rand.NewSource(6))
	x := encoderShaped(r, in, 0.9)
	w, bias, dst := fill(r, out*in), fill(r, out), make([]float64, out)
	var p Packed
	var scr PackedScratch
	if !s.Pack(&p, w, bias, in, out) {
		b.Fatalf("Pack declined a finite %dx%d layer", out, in)
	}
	shape := fmt.Sprintf("%dx%d/%s", in, out, f.name)
	b.Run("Packed/"+shape, func(b *testing.B) {
		SetWide(f.wide)
		defer SetWide(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.PackedForward(dst, x, 1, &p, &scr)
		}
	})
	// A lockstep batch: rows at busy levels from 80 to 100 %, so the chunks
	// the batch lists are a few more than any one row's. ns/row against the
	// dense rows at the same batch size.
	for _, bsz := range []int{4, 16} {
		xb := make([]float64, 0, bsz*in)
		for range bsz {
			xb = append(xb, encoderShaped(r, in, 0.8+0.2*r.Float64())...)
		}
		db := make([]float64, bsz*out)
		for _, packed := range []bool{false, true} {
			name := map[bool]string{false: "DenseBatch", true: "PackedBatch"}[packed]
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", name, in, out, bsz, f.name), func(b *testing.B) {
				SetWide(f.wide)
				defer SetWide(true)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if packed {
						s.PackedForward(db, xb, bsz, &p, &scr)
					} else {
						s.DenseForward(db, xb, w, bias, in, out, bsz)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsz), "ns/row")
			})
		}
	}
	if !f.wide {
		b.Run("Pack/"+shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Pack(&p, w, bias, in, out)
			}
		})
	}
}

// BenchmarkPaperScaleFirstLayer is the §IV-C state module's 11410→4000 layer
// on one decision, dense and packed: two 365 MB matrices, so a one-off line
// and not a CI step.
//
//	go test -run=NONE -bench=BenchmarkPaperScaleFirstLayer -benchtime=20x ./internal/nn/kernel/
func BenchmarkPaperScaleFirstLayer(b *testing.B) {
	for _, f := range benchForms() {
		benchOneSample(b, f, 11410, 4000, 0)
		benchPacked(b, f, 11410, 4000)
	}
}

// BenchmarkFoldNorm is one owner's fold of the largest quick-scale parameter
// (394x128): the three passes it replaces, then each set's single pass. The
// shadow is refilled outside the timer, so every op folds real values.
func BenchmarkFoldNorm(b *testing.B) {
	const n = 394 * 128
	r := rand.New(rand.NewSource(9))
	grad, shadow0 := fill(r, n), fill(r, n)
	shadow := make([]float64, n)
	run := func(name string, fold func(grad, shadow []float64) float64) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(shadow, shadow0)
				b.StartTimer()
				fold(grad, shadow)
			}
		})
	}
	run("three-pass", addFillNorm)
	for _, s := range benchSets() {
		run(s.Name, s.FoldNorm)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	const n = 746 * 128
	r := rand.New(rand.NewSource(5))
	val := fill(r, n)
	grad0 := fill(r, n)
	grad := append([]float64(nil), grad0...)
	m := fill(r, n)
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Abs(r.NormFloat64())
	}
	for _, s := range benchSets() {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Refill the gradient outside the timer: the kernel zeroes it,
				// and stepping on all-zero gradients decays the moments into
				// denormal range, which benchmarks sqrt/divide microcode
				// assists instead of the kernel.
				b.StopTimer()
				copy(grad, grad0)
				b.StartTimer()
				s.AdamStep(val, grad, m, v, 1, 3e-4, 0.9, 0.999, 0.1, 0.001, 1.2, 1.05, 1e-8)
			}
		})
	}
}
