package kernel

import (
	"cmp"
	"math"
)

// Set is one family of engine kernels. Every set computes the same bits (the
// package doc's numerical contract); sets differ in speed and in the optional
// kernels they carry, and each batch row is bitwise independent of bsz.
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
	// and odd elements that are not all zero. It only reads p, so any
	// number of goroutines may share one Packed; it lists x's chunks in s,
	// which serves one goroutine and is grown on first use.
	PackedForward func(dst, x []float64, p *Packed, s *PackedScratch)

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
// packed one-sample forward. The zero value is ready for Set.Pack; between
// one Pack and the next it is only read, so readers on several goroutines
// may share it, each with a PackedScratch of its own.
type Packed struct {
	in, out int
	w       []float64 // per row block: even chunks, odd chunks, in%4 tail columns, bias
}

// PackedScratch is where one reader's packed forward lists x's non-zero
// chunks. The zero value is ready; the first forward sizes it.
type PackedScratch struct {
	xs   []float64 // the listed chunks of xe, then of xo
	offs []int64   // each listed chunk's byte offset in a 4-row block
}

// Reference is the portable pure-Go kernel set: the avx2 set's arithmetic,
// bit for bit, on every architecture, through the same loop nests over Go
// renderings of its primitives. It is always available.
var Reference = &Set{
	Name:         "go",
	DenseForward: goPrims.denseForward,
	InputGrad:    goPrims.inputGrad,
	Transpose:    goTranspose,
	AccumGrads:   goPrims.accumGrads,
	AdamStep:     goAdamStep,
	FoldNorm:     goFoldNorm,
}

// active is the process-global set: the CPU's accelerated set where the
// probe found one, Reference otherwise. It is a variable initializer, like the
// probe's, so it is resolved once, before any init() runs.
var active = cmp.Or(nativeSet(), Reference)

// Active returns the process-global kernel set, resolved once at init from
// the CPU alone: the avx2 set where the CPU has AVX2 and FMA, the go set
// otherwise (and in a purego build).
func Active() *Set { return active }

// Name returns the active set's name.
func Name() string { return active.Name }

// Features returns the CPU features the dispatcher probed at init and which
// forms of the avx2 set's batched kernels they selected (e.g. "fma avx avx2
// avx512f avx512dq avx512vl osxsave zmm forms=wide"; "forms=narrow" without
// the AVX-512 bits or the OS's ZMM state), or "none" when no accelerated set
// exists for this build.
func Features() string { return cmp.Or(cpuFeatures(), "none") }

// ---------------------------------------------------------------------------
// The shared loop nests: both sets run their batched matmuls through these,
// over their own primitives (Go below, assembly in kernel_amd64.s).

// prims are the five primitives a set's batched matmuls are made of, each
// stated to the lane in the package doc's numerical contract: dot4 dots x with
// the four rows w[k*stride:], dot1 with w, and axpy8, axpy4 and axpy1 add
// Σ_k g[k*gstride]·x[k*xstride+i] over eight, four and one samples k to each
// dst[i].
type prims struct {
	dot4         func(w []float64, stride int, x []float64) (s0, s1, s2, s3 float64)
	dot1         func(w, x []float64) float64
	axpy8, axpy4 func(dst, x []float64, xstride int, g []float64, gstride int)
	axpy1        func(dst, x []float64, c float64)
}

// denseForward computes dst = x·Wᵀ + b for bsz row-major samples. The output
// rows are tiled so the active block of W stays L1-resident across the batch;
// within a tile four outputs are one dot4, and the out%4 rows of the last
// tile go through dot1 — per row, so a sample's outputs do not depend on bsz.
func (p *prims) denseForward(dst, x, w, b []float64, in, out, bsz int) {
	// ~16 KB of W per tile, leaving L1 room for the input rows and output;
	// at least one 4-row block per tile.
	oblk := 2048 / in
	oblk -= oblk % 4
	if oblk < 4 {
		oblk = 4
	}
	for ob := 0; ob < out; ob += oblk {
		oe := min(ob+oblk, out)
		for bi := 0; bi < bsz; bi++ {
			xr := x[bi*in : (bi+1)*in]
			dr := dst[bi*out : (bi+1)*out]
			o := ob
			for ; o+4 <= oe; o += 4 {
				s0, s1, s2, s3 := p.dot4(w[o*in:], in, xr)
				dr[o] = s0 + b[o]
				dr[o+1] = s1 + b[o+1]
				dr[o+2] = s2 + b[o+2]
				dr[o+3] = s3 + b[o+3]
			}
			for ; o < oe; o++ {
				dr[o] = p.dot1(w[o*in:], xr) + b[o]
			}
		}
	}
}

// inputGrad computes gin = grad·W through the caller's transposed weight
// copy: each Wᵀ row is dotted against four grad rows at once (stride out).
func (p *prims) inputGrad(gin, grad, wt []float64, in, out, bsz int) {
	p.inputGradFrom(gin, grad, wt, in, out, bsz, 0)
}

// inputGradFrom is inputGrad less the first i0 input gradients of the samples
// that go four at a time (the part a 4x4 tile has already written).
func (p *prims) inputGradFrom(gin, grad, wt []float64, in, out, bsz, i0 int) {
	b0 := 0
	for ; b0+4 <= bsz; b0 += 4 {
		gi0 := gin[b0*in : (b0+1)*in]
		gi1 := gin[(b0+1)*in : (b0+2)*in]
		gi2 := gin[(b0+2)*in : (b0+3)*in]
		gi3 := gin[(b0+3)*in : (b0+4)*in]
		g := grad[b0*out:]
		for i := i0; i < in; i++ {
			gi0[i], gi1[i], gi2[i], gi3[i] = p.dot4(g, out, wt[i*out:(i+1)*out])
		}
	}
	for ; b0 < bsz; b0++ {
		gr := grad[b0*out : (b0+1)*out]
		gi := gin[b0*in : (b0+1)*in]
		for i := range gi {
			gi[i] = p.dot1(gr, wt[i*out:(i+1)*out])
		}
	}
}

// accumGrads performs gb += Σ_rows grad and gw += gradᵀ·x, eight samples at a
// time through axpy8 and the rest through accumRest. A weight row whose eight
// coefficients are all zero is skipped: masked temporal offsets zero whole
// gradient columns, and the sparse dueling backward zeroes whole samples.
func (p *prims) accumGrads(gw, gb, grad, x []float64, in, out, bsz int) {
	accumBias(gb, grad, out, bsz)
	b0 := 0
	for ; b0+8 <= bsz; b0 += 8 {
		base := b0 * out
		for o := 0; o < out; o++ {
			if grad[base+o] == 0 && grad[base+out+o] == 0 &&
				grad[base+2*out+o] == 0 && grad[base+3*out+o] == 0 &&
				grad[base+4*out+o] == 0 && grad[base+5*out+o] == 0 &&
				grad[base+6*out+o] == 0 && grad[base+7*out+o] == 0 {
				continue
			}
			p.axpy8(gw[o*in:(o+1)*in], x[b0*in:], in, grad[base+o:], out)
		}
	}
	p.accumRest(gw, grad, x, in, out, b0, bsz)
}

// accumBias is gb += Σ_rows grad.
func accumBias(gb, grad []float64, out, bsz int) {
	for o := 0; o < out; o++ {
		var s float64
		for b := 0; b < bsz; b++ {
			s += grad[b*out+o]
		}
		gb[o] += s
	}
}

// accumRest accumulates samples b0..bsz-1, fewer than eight: one block of
// four through axpy4, then single rows through axpy1, each with its
// zero-coefficient row skip.
func (p *prims) accumRest(gw, grad, x []float64, in, out, b0, bsz int) {
	for ; b0+4 <= bsz; b0 += 4 {
		base := b0 * out
		for o := 0; o < out; o++ {
			if grad[base+o] == 0 && grad[base+out+o] == 0 &&
				grad[base+2*out+o] == 0 && grad[base+3*out+o] == 0 {
				continue
			}
			p.axpy4(gw[o*in:(o+1)*in], x[b0*in:], in, grad[base+o:], out)
		}
	}
	for ; b0 < bsz; b0++ {
		gr := grad[b0*out : (b0+1)*out]
		xr := x[b0*in : (b0+1)*in]
		for o, g := range gr {
			if g == 0 {
				continue
			}
			p.axpy1(gw[o*in:(o+1)*in], xr, g)
		}
	}
}

// ---------------------------------------------------------------------------
// The go set: the avx2 set's primitives and Adam step written out in Go. A
// fused step is math.FMA, which rounds once on every architecture; every
// other product is converted to float64 on its own, which the language
// forbids the compiler to fuse with the add that follows.

var goPrims = &prims{dot4: goDot4, dot1: goDot1, axpy8: goAxpy8, axpy4: goAxpy4, axpy1: goAxpy1}

// goDot4 is dot4: four independent rows of dot8.
func goDot4(w []float64, stride int, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	return dot8(w[:n], x), dot8(w[stride:stride+n], x), dot8(w[2*stride:2*stride+n], x), dot8(w[3*stride:3*stride+n], x)
}

// dot8 is one row of dot4, on the lane map of the package doc's numerical
// contract (the half-step on lanes 0-3, the fold, the n%4 tail by FMA).
func dot8(w, x []float64) float64 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float64
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs, ws := x[i:i+8:i+8], w[i:i+8:i+8]
		l0 = math.FMA(xs[0], ws[0], l0)
		l1 = math.FMA(xs[1], ws[1], l1)
		l2 = math.FMA(xs[2], ws[2], l2)
		l3 = math.FMA(xs[3], ws[3], l3)
		l4 = math.FMA(xs[4], ws[4], l4)
		l5 = math.FMA(xs[5], ws[5], l5)
		l6 = math.FMA(xs[6], ws[6], l6)
		l7 = math.FMA(xs[7], ws[7], l7)
	}
	if i+4 <= len(x) {
		xs, ws := x[i:i+4:i+4], w[i:i+4:i+4]
		l0 = math.FMA(xs[0], ws[0], l0)
		l1 = math.FMA(xs[1], ws[1], l1)
		l2 = math.FMA(xs[2], ws[2], l2)
		l3 = math.FMA(xs[3], ws[3], l3)
		i += 4
	}
	s := ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
	for ; i < len(x); i++ {
		s = math.FMA(x[i], w[i], s)
	}
	return s
}

// goDot1 is dot1 as the package doc states it: element j of a 16-element step
// on chain j/4, lane j%4.
func goDot1(w, x []float64) float64 {
	n := len(x)
	w = w[:n]
	var c [16]float64 // chain k, lane l at c[4k+l]
	i := 0
	for ; i+16 <= n; i += 16 {
		for j := range c {
			c[j] = math.FMA(x[i+j], w[i+j], c[j])
		}
	}
	if n&8 != 0 {
		for j := 0; j < 8; j++ {
			c[j] = math.FMA(x[i+j], w[i+j], c[j])
		}
		i += 8
	}
	if n&4 != 0 {
		for j := 0; j < 4; j++ {
			c[8+j] = math.FMA(x[i+j], w[i+j], c[8+j])
		}
		i += 4
	}
	var v [4]float64
	for l := range v {
		v[l] = (c[l] + c[4+l]) + (c[8+l] + c[12+l])
	}
	s := (v[0] + v[2]) + (v[1] + v[3])
	for ; i < n; i++ {
		s = math.FMA(x[i], w[i], s)
	}
	return s
}

// goAxpy8 is axpy8: per element, an even chain from dst and an odd one from
// sample 1's rounded product, joined by one add.
func goAxpy8(dst, x []float64, xstride int, g []float64, gstride int) {
	n := len(dst)
	g0, g1, g2, g3 := g[0], g[gstride], g[2*gstride], g[3*gstride]
	g4, g5, g6, g7 := g[4*gstride], g[5*gstride], g[6*gstride], g[7*gstride]
	x0, x1, x2, x3 := x[:n], x[xstride:xstride+n], x[2*xstride:2*xstride+n], x[3*xstride:3*xstride+n]
	x4, x5, x6, x7 := x[4*xstride:4*xstride+n], x[5*xstride:5*xstride+n], x[6*xstride:6*xstride+n], x[7*xstride:7*xstride+n]
	for i := range dst {
		e := math.FMA(g0, x0[i], dst[i])
		o := float64(g1 * x1[i])
		e = math.FMA(g2, x2[i], e)
		o = math.FMA(g3, x3[i], o)
		e = math.FMA(g4, x4[i], e)
		o = math.FMA(g5, x5[i], o)
		e = math.FMA(g6, x6[i], e)
		o = math.FMA(g7, x7[i], o)
		dst[i] = e + o
	}
}

// goAxpy4 is axpy4: goAxpy8's two chains over four samples.
func goAxpy4(dst, x []float64, xstride int, g []float64, gstride int) {
	n := len(dst)
	g0, g1, g2, g3 := g[0], g[gstride], g[2*gstride], g[3*gstride]
	x0, x1, x2, x3 := x[:n], x[xstride:xstride+n], x[2*xstride:2*xstride+n], x[3*xstride:3*xstride+n]
	for i := range dst {
		e := math.FMA(g0, x0[i], dst[i])
		o := float64(g1 * x1[i])
		e = math.FMA(g2, x2[i], e)
		o = math.FMA(g3, x3[i], o)
		dst[i] = e + o
	}
}

// goAxpy1 is axpy1: one FMA an element.
func goAxpy1(dst, x []float64, c float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.FMA(c, x[i], dst[i])
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

// goAdamStep is the avx2 set's adamStep element by element (package doc). With
// f = 1 the effective gradient is grad itself (x·1 is exact for every float64).
func goAdamStep(val, grad, m, v []float64, f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps float64) {
	grad, m, v = grad[:len(val)], m[:len(val)], v[:len(val)]
	for i := range val {
		g := float64(grad[i] * f)
		grad[i] = 0
		mi := math.FMA(a1, g, float64(m[i]*beta1))
		vi := math.FMA(a2, float64(g*g), float64(v[i]*beta2))
		m[i], v[i] = mi, vi
		q := float64(mi*invB1c) / (math.Sqrt(float64(vi*invB2c)) + eps)
		val[i] = math.FMA(-lr, q, val[i])
	}
}

// goFoldNorm is AddTo, Fill(0) and L2Norm's sum in one pass over the pair:
// four interleaved sums, the len%4 tail on the first.
func goFoldNorm(grad, shadow []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	if shadow == nil {
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
	shadow = shadow[:len(grad)]
	for ; i+4 <= len(grad); i += 4 {
		g0, g1, g2, g3 := grad[i]+shadow[i], grad[i+1]+shadow[i+1], grad[i+2]+shadow[i+2], grad[i+3]+shadow[i+3]
		grad[i], grad[i+1], grad[i+2], grad[i+3] = g0, g1, g2, g3
		shadow[i], shadow[i+1], shadow[i+2], shadow[i+3] = 0, 0, 0, 0
		s0 += float64(g0 * g0)
		s1 += float64(g1 * g1)
		s2 += float64(g2 * g2)
		s3 += float64(g3 * g3)
	}
	for ; i < len(grad); i++ {
		g := grad[i] + shadow[i]
		grad[i], shadow[i] = g, 0
		s0 += float64(g * g)
	}
	return s0 + s1 + s2 + s3
}
