//go:build amd64

package kernel

// The 512-bit forms of the avx2 set's three batched kernels, live when
// probeCPU finds AVX512F/DQ/VL and ZMM state. Each runs its whole tile loop in
// one assembly call (wide_amd64.s) and hands what the tile does not cover —
// out%4 rows, bsz%4 samples, in%4 input gradients, the bsz%8 samples of the
// accumulation, a weight-gradient row without a partner — to the 256-bit
// primitives, in the loops kernel_amd64.go runs them in. Which elements go
// through dot4's chain and which through dot1's is therefore what it was, and
// so is every bit. bsz = 1 never comes here with a tile to fill: a lone
// forward streams its weights once and is matvec's.

//go:noescape
func tile4x4(dst, a, b, bias *float64, n, na4, nb4, sa, sb int)

//go:noescape
func accum8x2(gw, x, grad *float64, in, out int) (left int)

// wideDenseForward tiles four weight rows against four samples; a weight
// block stays in L1 while the samples stream past it.
func wideDenseForward(dst, x, w, b []float64, in, out, bsz int) {
	b4, o4 := bsz&^3, out&^3
	if b4 == 0 || o4 == 0 {
		avx2DenseForward(dst, x, w, b, in, out, bsz)
		return
	}
	_, _, _, _ = dst[bsz*out-1], x[bsz*in-1], w[out*in-1], b[out-1]
	tile4x4(&dst[0], &w[0], &x[0], &b[0], in, o4/4, b4/4, 1, out)
	for o := o4; o < out; o++ {
		for bi := 0; bi < b4; bi++ {
			dst[bi*out+o] = dot1(&w[o*in], &x[bi*in], in) + b[o]
		}
	}
	if b4 < bsz {
		avx2DenseForward(dst[b4*out:], x[b4*in:], w, b, in, out, bsz-b4)
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
	inputGradFrom(gin, grad, wt, in, out, bsz, i4)
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
	accumRest(gw, grad, x, in, out, b0, bsz)
}
