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

// tol is the cross-set agreement bound from the package contract: sets may
// differ by lane reassociation and FMA contraction only, so even the paper-
// scale reductions stay far inside 1e-12 relative error.
const tol = 1e-12

func fill(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
	}
	return s
}

func within(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range want {
		d := math.Abs(got[i] - want[i])
		scale := math.Abs(want[i])
		if scale < 1 {
			scale = 1
		}
		if d > tol*scale {
			t.Fatalf("%s[%d]: got %v want %v (rel err %.3g > %.0g)",
				what, i, got[i], want[i], d/scale, tol)
		}
	}
}

// Shapes deliberately include sizes off every internal stride: below the
// 4-wide vector width, straddling the 4-way/8-way unrolls, and crossing the
// forward kernel's output tile.
var (
	testDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 64, 130}
	testBsz  = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}
)

// TestCrossSetAgreement property-tests every accelerated set against the
// Reference set on random tensors at tail shapes, for all four kernels.
func TestCrossSetAgreement(t *testing.T) {
	native := Native()
	if native == nil {
		t.Skip("no accelerated kernel set on this host")
	}
	r := rand.New(rand.NewSource(1))
	for _, in := range testDims {
		for _, out := range testDims {
			for _, bsz := range testBsz {
				x := fill(r, bsz*in)
				w := fill(r, out*in)
				b := fill(r, out)
				grad := fill(r, bsz*out)
				// Zero some gradient columns and one full sample so the
				// zero-skip paths in AccumGrads are exercised too.
				for o := 0; o < out; o += 3 {
					for bi := 0; bi < bsz; bi++ {
						grad[bi*out+o] = 0
					}
				}
				for o := 0; o < out; o++ {
					grad[(bsz-1)*out+o] = 0
				}
				wt := make([]float64, in*out)
				for o := 0; o < out; o++ {
					for i := 0; i < in; i++ {
						wt[i*out+o] = w[o*in+i]
					}
				}

				dstG := make([]float64, bsz*out)
				dstN := make([]float64, bsz*out)
				Reference.DenseForward(dstG, x, w, b, in, out, bsz)
				native.DenseForward(dstN, x, w, b, in, out, bsz)

				ginG := make([]float64, bsz*in)
				ginN := make([]float64, bsz*in)
				Reference.InputGrad(ginG, grad, wt, in, out, bsz)
				native.InputGrad(ginN, grad, wt, in, out, bsz)

				gwG := fill(r, out*in)
				gbG := fill(r, out)
				gwN := append([]float64(nil), gwG...)
				gbN := append([]float64(nil), gbG...)
				Reference.AccumGrads(gwG, gbG, grad, x, in, out, bsz)
				native.AccumGrads(gwN, gbN, grad, x, in, out, bsz)

				what := fmt.Sprintf("in=%d out=%d bsz=%d forward", in, out, bsz)
				within(t, what, dstN, dstG)
				within(t, fmt.Sprintf("in=%d out=%d bsz=%d inputgrad", in, out, bsz), ginN, ginG)
				within(t, fmt.Sprintf("in=%d out=%d bsz=%d gw", in, out, bsz), gwN, gwG)
				within(t, fmt.Sprintf("in=%d out=%d bsz=%d gb", in, out, bsz), gbN, gbG)
			}
		}
	}
}

// TestCrossSetAdam compares the fused Adam step across sets, including the
// gradient-zeroing side effect and moment updates, at tail lengths.
func TestCrossSetAdam(t *testing.T) {
	native := Native()
	if native == nil {
		t.Skip("no accelerated kernel set on this host")
	}
	r := rand.New(rand.NewSource(2))
	const (
		lr, beta1, beta2, eps = 3e-4, 0.9, 0.999, 1e-8
	)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 1000} {
		for _, f := range []float64{1, 0.37} {
			valG := fill(r, n)
			gradG := fill(r, n)
			mG := fill(r, n)
			vG := make([]float64, n)
			for i := range vG {
				vG[i] = math.Abs(r.NormFloat64()) // second moment is nonnegative
			}
			valN := append([]float64(nil), valG...)
			gradN := append([]float64(nil), gradG...)
			mN := append([]float64(nil), mG...)
			vN := append([]float64(nil), vG...)

			t8 := 8.0
			invB1c := 1 / (1 - math.Pow(beta1, t8))
			invB2c := 1 / (1 - math.Pow(beta2, t8))
			Reference.AdamStep(valG, gradG, mG, vG, f, lr, beta1, beta2, 1-beta1, 1-beta2, invB1c, invB2c, eps)
			native.AdamStep(valN, gradN, mN, vN, f, lr, beta1, beta2, 1-beta1, 1-beta2, invB1c, invB2c, eps)

			what := fmt.Sprintf("n=%d f=%v", n, f)
			within(t, what+" val", valN, valG)
			within(t, what+" m", mN, mG)
			within(t, what+" v", vN, vG)
			for i, g := range gradN {
				if g != 0 {
					t.Fatalf("%s: grad[%d] = %v, want 0 after fused zeroing", what, i, g)
				}
			}
		}
	}
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
	for _, name := range Names() {
		s, err := Select(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
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
		s0 += grad[i] * grad[i]
		s1 += grad[i+1] * grad[i+1]
		s2 += grad[i+2] * grad[i+2]
		s3 += grad[i+3] * grad[i+3]
	}
	for ; i < len(grad); i++ {
		s0 += grad[i] * grad[i]
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

func TestSelect(t *testing.T) {
	if s, err := Select("go"); err != nil || s != Reference {
		t.Fatalf("Select(go) = %v, %v; want Reference", s, err)
	}
	auto, err := Select("")
	if err != nil {
		t.Fatal(err)
	}
	if n := Native(); n != nil {
		if auto != n {
			t.Fatalf("Select(auto) = %q with native available; want %q", auto.Name, n.Name)
		}
		if s, err := Select(n.Name); err != nil || s != n {
			t.Fatalf("Select(%q) = %v, %v; want native set", n.Name, s, err)
		}
	} else if auto != Reference {
		t.Fatalf("Select(auto) = %q without native set; want go", auto.Name)
	}
	if _, err := Select("sse9"); err == nil {
		t.Fatal("Select(sse9): want error for unknown set, got nil")
	}
	if Active() == nil || Name() == "" {
		t.Fatal("no active set after init")
	}
	// Init-order regression: with no override, the selecting init must have
	// seen the arch probe's result (variable initialization precedes init()),
	// so the native set — when one exists — is what actually went live.
	switch forced := os.Getenv("MRSCH_KERNEL"); {
	case forced != "" && forced != "auto":
		if Active().Name != forced {
			t.Fatalf("Active() = %q with MRSCH_KERNEL=%q", Active().Name, forced)
		}
	case Native() != nil:
		if Active() != Native() {
			t.Fatalf("Active() = %q but native set %q exists and no override is set", Active().Name, Native().Name)
		}
	default:
		if Active() != Reference {
			t.Fatalf("Active() = %q with no native set", Active().Name)
		}
	}
	if Features() == "" {
		t.Fatal(`Features() = ""; want detected features or "none"`)
	}
	names := Names()
	if len(names) == 0 || names[0] != "go" {
		t.Fatalf("Names() = %v; want reference first", names)
	}
}

func benchSets() []*Set {
	sets := []*Set{Reference}
	if n := Native(); n != nil {
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
	if Native() == nil {
		if wide || narrow {
			t.Fatalf("no native set, yet Features() = %q names its forms", f)
		}
		return
	}
	if wide == narrow {
		t.Fatalf("Features() = %q: want exactly one of forms=wide, forms=narrow", f)
	}
	if got := Name(); Active() == Native() && got != "avx2" {
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
	if n := Native(); n != nil {
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
// one form (Packed) and, once per set, the re-lay itself (Pack); a set
// without a packed path has no rows.
func benchPacked(b *testing.B, f benchForm, in, out int) {
	s := f.set
	if s.Pack == nil {
		return
	}
	r := rand.New(rand.NewSource(6))
	x := encoderShaped(r, in, 0.9)
	w, bias, dst := fill(r, out*in), fill(r, out), make([]float64, out)
	var p Packed
	if !s.Pack(&p, w, bias, in, out) {
		b.Fatalf("Pack declined a finite %dx%d layer", out, in)
	}
	shape := fmt.Sprintf("%dx%d/%s", in, out, f.name)
	b.Run("Packed/"+shape, func(b *testing.B) {
		SetWide(f.wide)
		defer SetWide(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.PackedForward(dst, x, &p)
		}
	})
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
