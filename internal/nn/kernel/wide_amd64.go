//go:build amd64 && !purego

package kernel

// The 512-bit forms of the avx2 set's three batched kernels and of its
// one-sample forward, live when probeCPU finds AVX512F/DQ/VL and ZMM state.
// Each runs its whole tile or block loop in one assembly call (wide_amd64.s)
// and hands what the tile does not cover — out%4 rows, in%4 input gradients,
// the bsz%8 samples of the accumulation, a weight-gradient row without a
// partner, the out%8 rows of a lone sample — to the 256-bit primitives, in the
// shared loop nests of kernel.go (prims, bound to the assembly as avx2Prims).
// Which elements go through dot4's chain and which through dot1's is therefore
// what it was, and so is every bit. A lone sample (bsz = 1, and the bsz%4 samples a tile leaves) goes through
// matvec8: at the engine's quick-scale widths its weights sit in L1 or L2 and
// the 256-bit matvec is bound by its instruction count, not by the stream.

//go:noescape
func tile4x4(dst, a, b, bias *float64, n, na4, nb4, sa, sb int)

//go:noescape
func matvec8(dst, w, x, b *float64, in, n8 int)

//go:noescape
func accum8x2(gw, x, grad *float64, in, out int) (left int)

// wideDenseForward tiles four weight rows against four samples; a weight
// block stays in L1 while the samples stream past it. The samples a tile
// leaves go one at a time through wideMatvec.
func wideDenseForward(dst, x, w, b []float64, in, out, bsz int) {
	b4, o4 := bsz&^3, out&^3
	if o4 == 0 {
		b4 = 0
	}
	if b4 > 0 {
		_, _, _, _ = dst[bsz*out-1], x[bsz*in-1], w[out*in-1], b[out-1]
		tile4x4(&dst[0], &w[0], &x[0], &b[0], in, o4/4, b4/4, 1, out)
		for o := o4; o < out; o++ {
			for bi := 0; bi < b4; bi++ {
				dst[bi*out+o] = dot1(&w[o*in], &x[bi*in], in) + b[o]
			}
		}
	}
	for bi := b4; bi < bsz; bi++ {
		wideMatvec(dst[bi*out:], x[bi*in:], w, b, in, out)
	}
}

// wideMatvec is matvec with its rows eight at a time: the out%8 rows after
// the last block of eight go through matvec, which sends four of them (when
// there are four) through dot4 and the rest through dot1 — the primitives
// matvec over the whole layer would give those rows.
func wideMatvec(dst, x, w, b []float64, in, out int) {
	_, _, _, _ = dst[out-1], x[in-1], w[out*in-1], b[out-1]
	o8 := out &^ 7
	if o8 > 0 {
		matvec8(&dst[0], &w[0], &x[0], &b[0], in, o8/8)
	}
	if o8 < out {
		matvec(&dst[o8], &w[o8*in], &x[0], &b[o8], in, out-o8)
	}
}

// wideInputGrad tiles four grad rows (samples) against four Wᵀ rows: the
// shared tile with grad as its a operand, as dot4 has it, and no bias.
func wideInputGrad(gin, grad, wt []float64, in, out, bsz int) {
	b4, i4 := bsz&^3, in&^3
	if b4 == 0 {
		i4 = 0
	}
	if i4 > 0 {
		_, _, _ = gin[bsz*in-1], grad[bsz*out-1], wt[in*out-1]
		tile4x4(&gin[0], &grad[0], &wt[0], nil, out, b4/4, i4/4, in, 1)
	}
	avx2Prims.inputGradFrom(gin, grad, wt, in, out, bsz, i4)
}

// wideAccumGrads runs each block of eight samples through accum8x2.
func wideAccumGrads(gw, gb, grad, x []float64, in, out, bsz int) {
	accumBias(gb, grad, out, bsz)
	b0 := 0
	if bsz >= 8 {
		_, _, _ = gw[out*in-1], grad[bsz*out-1], x[bsz*in-1]
	}
	for ; b0+8 <= bsz; b0 += 8 {
		if o := accum8x2(&gw[0], &x[b0*in], &grad[b0*out], in, out); o >= 0 {
			axpy8(&gw[o*in], &x[b0*in], in, &grad[b0*out+o], out, in)
		}
	}
	avx2Prims.accumRest(gw, grad, x, in, out, b0, bsz)
}
