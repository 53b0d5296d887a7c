package kernel

import (
	"fmt"
	"math"
	"os"
	"strings"
)

// Set is one coherent family of engine kernels. All arithmetic functions of
// a Set use the same accumulation structure, so results are deterministic
// for a fixed Set and each batch row is bitwise independent of bsz.
type Set struct {
	// Name identifies the set ("go", "avx2").
	Name string

	// DenseForward computes dst = x·Wᵀ + b for bsz row-major samples:
	// x is bsz×in, w is out×in row-major, b is len out, dst is bsz×out.
	// Each sample row's outputs must be computed independently of bsz and
	// of the other rows (the batch-vs-single bitwise row identity the
	// serve contract relies on).
	DenseForward func(dst, x, w, b []float64, in, out, bsz int)

	// InputGrad computes gin = grad·W from the pre-transposed weights
	// wt (in×out row-major, built by the caller with Transpose): grad is
	// bsz×out, gin is bsz×in. gin rows are overwritten, not accumulated.
	InputGrad func(gin, grad, wt []float64, in, out, bsz int)

	// Transpose writes Wᵀ: wt[i*out+o] = w[o*in+i] for w out×in row-major.
	// A move, so every set produces the same bits.
	Transpose func(wt, w []float64, in, out int)

	// AccumGrads accumulates one batch's parameter gradients:
	// gb += Σ_rows grad and gw += gradᵀ·x, with gw out×in row-major,
	// grad bsz×out, x bsz×in. Implementations may (and do) skip weight
	// rows whose gradient coefficients are all zero — masked temporal
	// offsets zero whole columns, and the sparse dueling backward zeroes
	// whole samples.
	AccumGrads func(gw, gb, grad, x []float64, in, out, bsz int)

	// AdamStep applies one fused Adam update over a parameter's value,
	// gradient, and moment vectors (all the same length): the effective
	// gradient is f*grad[i], grad is zeroed in the same pass, and
	//
	//	m = beta1*m + a1*g;  v = beta2*v + a2*g*g
	//	val -= lr * (m*invB1c) / (sqrt(v*invB2c) + eps)
	//
	// where a1 = 1-beta1, a2 = 1-beta2 and invB1c/invB2c are the step's
	// reciprocal bias corrections, all precomputed by the caller.
	AdamStep func(val, grad, m, v []float64, f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps float64)

	// FoldNorm folds one worker's shadow gradient into the master and takes
	// the clip norm's sum in the same pass: grad[i] += shadow[i],
	// shadow[i] = 0, and it returns Σ grad[i]² over the folded values —
	// accumulated exactly as nn.L2Norm does (four interleaved sums, the
	// len%4 tail on the first, added left to right, multiply and add
	// rounded separately), so math.Sqrt of it is L2Norm's bits in every set.
	// A nil shadow folds nothing and only sums.
	FoldNorm func(grad, shadow []float64) float64

	// Pack re-lays one layer's w (out×in row-major) and b into p for
	// PackedForward, reusing p's storage, and reports whether it took the
	// layer. It declines — and the caller stays on DenseForward — a weight
	// that is not finite, a bias that is -0, and a shape the packed kernel
	// does not handle (see the package doc's numerical contract for why
	// each would break bitwise equality). p is a copy: it goes stale when w
	// or b change. Pack and PackedForward are nil in a set without a packed
	// path (the go set).
	Pack func(p *Packed, w, b []float64, in, out int) bool

	// PackedForward is DenseForward at bsz = 1 against a layer Pack took,
	// bit for bit, in time proportional to the 4-wide chunks of x's even
	// and odd elements that are not all zero. It uses p's scratch, so one
	// Packed serves one goroutine.
	PackedForward func(dst, x []float64, p *Packed)

	// BackfillScan4 tests four words a step: it returns the first k at which
	//
	//	(free-keys[k])&guard == guard &&
	//	(now+walls[k] <= shadow || (extra-keys[k])&guard == guard)
	//
	// holds, or len(keys) when none does. len(keys) is a multiple of four and
	// walls is at least as long. It is nil in the go set, whose callers run
	// the expression themselves.
	BackfillScan4 func(keys []uint64, walls []float64, free, extra, guard uint64, now, shadow float64) int
}

// Packed is one Dense layer's weights and bias in the layout of a set's
// packed one-sample forward, with the scratch that forward lists x's
// non-zero chunks in. The zero value is ready for Set.Pack.
type Packed struct {
	in, out int
	w       []float64 // per row block: even chunks, odd chunks, in%4 tail columns, bias
	xs      []float64 // the listed chunks of xe, then of xo
	offs    []int64   // each listed chunk's byte offset in a 4-row block
}

// Reference is the portable pure-Go kernel set — the arithmetic reference
// every accelerated set is property-tested against, and bit-for-bit the
// pre-dispatch engine. It is always available.
var Reference = &Set{
	Name:         "go",
	DenseForward: goDenseForward,
	InputGrad:    goInputGrad,
	Transpose:    goTranspose,
	AccumGrads:   goAccumGrads,
	AdamStep:     goAdamStep,
	FoldNorm:     goFoldNorm,
}

var (
	active   *Set
	features string
)

func init() {
	features = cpuFeatures()
	s, err := Select(os.Getenv("MRSCH_KERNEL"))
	if err != nil {
		// A forced set that cannot be honored must fail loudly, never
		// silently fall back (the run would be attributed to the wrong
		// kernels).
		panic(err)
	}
	active = s
}

// Active returns the process-global kernel set, selected once at init:
// the best CPU-supported set, or whatever MRSCH_KERNEL forced.
func Active() *Set { return active }

// Name returns the active set's name.
func Name() string { return active.Name }

// Features returns the CPU features the dispatcher probed at init and which
// forms of the avx2 set's batched kernels they selected (e.g. "fma avx avx2
// avx512f avx512dq avx512vl osxsave zmm forms=wide"; "forms=narrow" without
// the AVX-512 bits or the OS's ZMM state), or "none" when no accelerated set
// exists for this architecture.
func Features() string {
	if features == "" {
		return "none"
	}
	return features
}

// Native returns this host's accelerated kernel set, or nil when the CPU
// (or architecture) does not support one. It is exported for equivalence
// tests, which compare it against Reference directly regardless of which
// set Active selected.
func Native() *Set { return nativeSet() }

// Names lists the kernel sets available on this host, reference first.
func Names() []string {
	names := []string{Reference.Name}
	if n := nativeSet(); n != nil {
		names = append(names, n.Name)
	}
	return names
}

// Select resolves a kernel-set name to a Set: "" or "auto" picks the best
// supported set, "go" forces the reference set, and an accelerated set's
// name ("avx2") forces that set or errors when this host cannot run it.
func Select(name string) (*Set, error) {
	switch name {
	case "", "auto":
		if n := nativeSet(); n != nil {
			return n, nil
		}
		return Reference, nil
	case Reference.Name:
		return Reference, nil
	default:
		if n := nativeSet(); n != nil && n.Name == name {
			return n, nil
		}
		return nil, fmt.Errorf("kernel: MRSCH_KERNEL=%q: unknown or unsupported kernel set on this host (available: %s)",
			name, strings.Join(Names(), "|"))
	}
}

// ---------------------------------------------------------------------------
// The portable reference set. These are the pre-dispatch engine loops,
// moved here verbatim from internal/nn (dense.go, optimizer.go) so the
// "go" set stays bit-for-bit the historical engine.

// goDenseForward computes dst = x·Wᵀ + b for bsz row-major samples. The
// output rows are tiled so the active block of W stays L1-resident across
// the batch, and within a tile four output neurons share one streaming
// pass over the input row (4-way register blocking). Each output keeps its
// own sequential accumulator, so results are bitwise identical to the
// naive per-output dot product.
func goDenseForward(dst, x, w, b []float64, in, out, bsz int) {
	// ~16 KB of W per tile, leaving L1 room for the input rows and output;
	// at least one 4-row microkernel per tile.
	oblk := 2048 / in
	oblk -= oblk % 4
	if oblk < 4 {
		oblk = 4
	}
	for ob := 0; ob < out; ob += oblk {
		oe := ob + oblk
		if oe > out {
			oe = out
		}
		for bi := 0; bi < bsz; bi++ {
			xr := x[bi*in : (bi+1)*in]
			dr := dst[bi*out : (bi+1)*out]
			o := ob
			for ; o+4 <= oe; o += 4 {
				r0 := w[o*in : (o+1)*in]
				r1 := w[(o+1)*in : (o+2)*in]
				r2 := w[(o+2)*in : (o+3)*in]
				r3 := w[(o+3)*in : (o+4)*in]
				var s0, s1, s2, s3 float64
				for i, xi := range xr {
					s0 += r0[i] * xi
					s1 += r1[i] * xi
					s2 += r2[i] * xi
					s3 += r3[i] * xi
				}
				dr[o] = s0 + b[o]
				dr[o+1] = s1 + b[o+1]
				dr[o+2] = s2 + b[o+2]
				dr[o+3] = s3 + b[o+3]
			}
			for ; o < oe; o++ {
				row := w[o*in : (o+1)*in]
				var s float64
				for i, xi := range xr {
					s += row[i] * xi
				}
				dr[o] = s + b[o]
			}
		}
	}
}

// goInputGrad computes gin = grad·W through the caller's transposed weight
// copy: with Wᵀ stored in×out, each input gradient is a sequential dot
// product, and 4-way sample blocking reuses every Wᵀ row across four
// samples from registers.
func goInputGrad(gin, grad, wt []float64, in, out, bsz int) {
	b0 := 0
	for ; b0+4 <= bsz; b0 += 4 {
		g0r := grad[b0*out : (b0+1)*out]
		g1r := grad[(b0+1)*out : (b0+2)*out]
		g2r := grad[(b0+2)*out : (b0+3)*out]
		g3r := grad[(b0+3)*out : (b0+4)*out]
		gi0 := gin[b0*in : (b0+1)*in]
		gi1 := gin[(b0+1)*in : (b0+2)*in]
		gi2 := gin[(b0+2)*in : (b0+3)*in]
		gi3 := gin[(b0+3)*in : (b0+4)*in]
		for i := 0; i < in; i++ {
			wti := wt[i*out : (i+1)*out]
			var a0, a1, a2, a3 float64
			for o, wv := range wti {
				a0 += g0r[o] * wv
				a1 += g1r[o] * wv
				a2 += g2r[o] * wv
				a3 += g3r[o] * wv
			}
			gi0[i] = a0
			gi1[i] = a1
			gi2[i] = a2
			gi3[i] = a3
		}
	}
	for ; b0 < bsz; b0++ {
		gr := grad[b0*out : (b0+1)*out]
		gi := gin[b0*in : (b0+1)*in]
		for i := 0; i < in; i++ {
			wti := wt[i*out : (i+1)*out]
			var a float64
			for o, wv := range wti {
				a += gr[o] * wv
			}
			gi[i] = a
		}
	}
}

// goTranspose writes Wᵀ in 32x32 tiles, which keep both the read rows and
// the strided write columns cache-resident.
func goTranspose(wt, w []float64, in, out int) {
	const tile = 32
	for ot := 0; ot < out; ot += tile {
		oe := min(ot+tile, out)
		for it := 0; it < in; it += tile {
			ie := min(it+tile, in)
			for o := ot; o < oe; o++ {
				row := w[o*in : (o+1)*in]
				for i := it; i < ie; i++ {
					wt[i*out+o] = row[i]
				}
			}
		}
	}
}

// goAccumGrads performs gb += Σ_rows grad and gw += gradᵀ·x with 8/4-way
// sample blocking: several samples' rank-1 updates merge into one
// streaming pass over each weight-gradient row, dividing the gw load/store
// traffic that dominates the naive per-sample backward.
func goAccumGrads(gw, gb, grad, x []float64, in, out, bsz int) {
	for o := 0; o < out; o++ {
		var s float64
		for b := 0; b < bsz; b++ {
			s += grad[b*out+o]
		}
		gb[o] += s
	}
	b0 := 0
	for ; b0+8 <= bsz; b0 += 8 {
		g0r := grad[b0*out : (b0+1)*out]
		g1r := grad[(b0+1)*out : (b0+2)*out]
		g2r := grad[(b0+2)*out : (b0+3)*out]
		g3r := grad[(b0+3)*out : (b0+4)*out]
		g4r := grad[(b0+4)*out : (b0+5)*out]
		g5r := grad[(b0+5)*out : (b0+6)*out]
		g6r := grad[(b0+6)*out : (b0+7)*out]
		g7r := grad[(b0+7)*out : (b0+8)*out]
		x0 := x[b0*in : (b0+1)*in]
		x1 := x[(b0+1)*in : (b0+2)*in]
		x2 := x[(b0+2)*in : (b0+3)*in]
		x3 := x[(b0+3)*in : (b0+4)*in]
		x4 := x[(b0+4)*in : (b0+5)*in]
		x5 := x[(b0+5)*in : (b0+6)*in]
		x6 := x[(b0+6)*in : (b0+7)*in]
		x7 := x[(b0+7)*in : (b0+8)*in]
		for o := 0; o < out; o++ {
			g0, g1, g2, g3 := g0r[o], g1r[o], g2r[o], g3r[o]
			g4, g5, g6, g7 := g4r[o], g5r[o], g6r[o], g7r[o]
			if g0 == 0 && g1 == 0 && g2 == 0 && g3 == 0 &&
				g4 == 0 && g5 == 0 && g6 == 0 && g7 == 0 {
				// Masked temporal offsets zero whole gradient columns; skip
				// the row entirely (the sparse dueling backward relies on
				// the same property sample-wise).
				continue
			}
			grow := gw[o*in : (o+1)*in]
			for i := range grow {
				grow[i] += g0*x0[i] + g1*x1[i] + g2*x2[i] + g3*x3[i] +
					g4*x4[i] + g5*x5[i] + g6*x6[i] + g7*x7[i]
			}
		}
	}
	for ; b0+4 <= bsz; b0 += 4 {
		g0r := grad[b0*out : (b0+1)*out]
		g1r := grad[(b0+1)*out : (b0+2)*out]
		g2r := grad[(b0+2)*out : (b0+3)*out]
		g3r := grad[(b0+3)*out : (b0+4)*out]
		x0 := x[b0*in : (b0+1)*in]
		x1 := x[(b0+1)*in : (b0+2)*in]
		x2 := x[(b0+2)*in : (b0+3)*in]
		x3 := x[(b0+3)*in : (b0+4)*in]
		for o := 0; o < out; o++ {
			g0, g1, g2, g3 := g0r[o], g1r[o], g2r[o], g3r[o]
			if g0 == 0 && g1 == 0 && g2 == 0 && g3 == 0 {
				continue
			}
			grow := gw[o*in : (o+1)*in]
			for i := range grow {
				grow[i] += g0*x0[i] + g1*x1[i] + g2*x2[i] + g3*x3[i]
			}
		}
	}
	for ; b0 < bsz; b0++ {
		gr := grad[b0*out : (b0+1)*out]
		xr := x[b0*in : (b0+1)*in]
		for o, g := range gr {
			if g == 0 {
				continue
			}
			grow := gw[o*in : (o+1)*in]
			for i := range grow {
				grow[i] += g * xr[i]
			}
		}
	}
}

// goAdamStep is the fused scaled Adam update: the inner loop hoists the
// bias corrections into reciprocal multiplies and fuses gradient zeroing,
// leaving one unavoidable sqrt+divide per element. With f=1 it is bitwise
// the unscaled update (x*1.0 is exact for every float64).
func goAdamStep(val, grad, m, v []float64, f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps float64) {
	for i := range val {
		g := grad[i] * f
		grad[i] = 0
		mi := beta1*m[i] + a1*g
		vi := beta2*v[i] + a2*g*g
		m[i] = mi
		v[i] = vi
		val[i] -= lr * (mi * invB1c) / (math.Sqrt(vi*invB2c) + eps)
	}
}

// goFoldNorm is AddTo, Fill(0) and L2Norm's sum in one pass over the pair.
func goFoldNorm(grad, shadow []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	if shadow == nil {
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
	shadow = shadow[:len(grad)]
	for ; i+4 <= len(grad); i += 4 {
		g0, g1, g2, g3 := grad[i]+shadow[i], grad[i+1]+shadow[i+1], grad[i+2]+shadow[i+2], grad[i+3]+shadow[i+3]
		grad[i], grad[i+1], grad[i+2], grad[i+3] = g0, g1, g2, g3
		shadow[i], shadow[i+1], shadow[i+2], shadow[i+3] = 0, 0, 0, 0
		s0 += g0 * g0
		s1 += g1 * g1
		s2 += g2 * g2
		s3 += g3 * g3
	}
	for ; i < len(grad); i++ {
		g := grad[i] + shadow[i]
		grad[i], shadow[i] = g, 0
		s0 += g * g
	}
	return s0 + s1 + s2 + s3
}
