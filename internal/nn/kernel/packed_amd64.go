//go:build amd64 && !purego

package kernel

// The packed forward of the avx2 set over the layout of packed.go: a lone
// sample lists its own non-zero chunks (packedMatvec), and a batch lists the
// chunks that are non-zero in any of its rows and runs every row over that
// one list (packedPass4/8/16), so each weight block is read once a batch.
// The batch passes give a lone sample the same bits, but not as fast: they
// copy the sample de-interleaved and carry a batch's bookkeeping, and at
// bsz = 1 they read 12–16 % slower than packedMatvec in BenchmarkDenseKernels'
// Packed rows and ≈ 5 % slower a lone decision at the paper's width
// (BenchmarkPaperScaleDecide), so a lone sample keeps its own routine.

//go:noescape
func packedMatvec(dst, x, w, xs *float64, offs *int64, in, out, wide int)

//go:noescape
func packedSpread(xs *float64, mask *uint8, x *float64, in int)

//go:noescape
func packedPass4(dst, xs, w *float64, offs *int64, acc *float64, n, bsz, k, tail, xstride, dstride int)

//go:noescape
func packedPass8(dst, xs, w *float64, offs *int64, acc *float64, n, bsz, k, tail, xstride, dstride int)

//go:noescape
func packedPass16(dst, xs, w *float64, offs *int64, acc *float64, n, bsz, k, tail, xstride, dstride int)

// batchAcc is the doubles of bacc a batch row takes: sixteen rows' 4-lane
// accumulators carried from one segment of the chunk list to the next, then
// the even pass's sixteen sums.
const batchAcc = 80

func avx2PackedForward(dst, x []float64, bsz int, p *Packed, s *PackedScratch) {
	if bsz == 1 {
		packedForward(dst, x, p, s, 0)
		return
	}
	packedBatchForward(dst, x, bsz, p, s, false)
}

// widePackedForward is the packed forward with its 8-row blocks taken two at a
// time in 512-bit registers (packed_amd64.s), the same bits.
func widePackedForward(dst, x []float64, bsz int, p *Packed, s *PackedScratch) {
	if bsz == 1 {
		packedForward(dst, x, p, s, 1)
		return
	}
	packedBatchForward(dst, x, bsz, p, s, true)
}

func packedForward(dst, x []float64, p *Packed, s *PackedScratch, wide int) {
	if p.in == 0 {
		panic("kernel: PackedForward without a successful Pack")
	}
	_, _ = dst[p.out-1], x[p.in-1]
	k, _ := packGeometry(p.in)
	if len(s.xs) < 8*k {
		s.xs = make([]float64, 8*k)
		s.offs = make([]int64, 2*k)
	}
	var xs *float64
	var offs *int64
	if k > 0 {
		xs, offs = &s.xs[0], &s.offs[0]
	}
	packedMatvec(&dst[0], &x[0], &p.w[0], xs, offs, p.in, p.out, wide)
}

// packedBatchForward is the packed forward of bsz rows. It de-interleaves
// every row into s.bx, noting which chunks are non-zero in any row, lists
// those chunks once, and runs each row block's even pass and then its odd
// pass over every row of the batch (packed_amd64.s): a row takes the listed
// chunks in index order, the order its lone forward takes the ones it lists
// itself, and a chunk that is zero in this row but not in another adds a
// product of ±0, which the numerical contract's exact no-op covers. The blocks
// go as the lone forward takes them: sixteen rows at a time in the 512-bit
// form, then eight, then the last four when out%8 == 4.
func packedBatchForward(dst, x []float64, bsz int, p *Packed, s *PackedScratch, wide bool) {
	in, out := p.in, p.out
	if in == 0 {
		panic("kernel: PackedForward without a successful Pack")
	}
	_, _ = dst[bsz*out-1], x[bsz*in-1]
	body, tail := in-in%4, in%4
	k, perRow := packGeometry(in)
	xstride := 8*k + tail
	s.bx = grow(s.bx, max(bsz*xstride, 1))
	s.bacc = grow(s.bacc, bsz*batchAcc)
	s.bmask = grow(s.bmask, max(2*k, 1))
	s.boffs = grow(s.boffs, max(2*k, 1))
	mask := s.bmask[:2*k]
	clear(mask)
	for b := 0; b < bsz; b++ {
		row, xb := s.bx[b*xstride:(b+1)*xstride], x[b*in:(b+1)*in]
		if k > 0 {
			packedSpread(&row[0], &mask[0], &xb[0], in)
		}
		copy(row[8*k:], xb[body:])
	}
	n, ne := 0, 0
	for c, m := range mask {
		if m != 0 {
			s.boffs[n] = int64(32 * c)
			n++
		}
		if c == k-1 {
			ne = n
		}
	}
	xs, acc := &s.bx[0], &s.bacc[0]
	evens, odds := &s.boffs[0], &s.boffs[min(ne, len(s.boffs)-1)] // an empty list's pointer is never read
	no := n - ne
	xsb, dsb := 8*xstride, 8*out
	o0 := 0
	if wide {
		for ; out-o0 >= 16; o0 += 16 {
			w := &p.w[o0*perRow]
			packedPass16(nil, xs, w, evens, acc, ne, bsz, k, tail, xsb, dsb)
			packedPass16(&dst[o0], xs, w, odds, acc, no, bsz, k, tail, xsb, dsb)
		}
	}
	for ; out-o0 >= 8; o0 += 8 {
		w := &p.w[o0*perRow]
		packedPass8(nil, xs, w, evens, acc, ne, bsz, k, tail, xsb, dsb)
		packedPass8(&dst[o0], xs, w, odds, acc, no, bsz, k, tail, xsb, dsb)
	}
	if o0 < out {
		w := &p.w[o0*perRow]
		packedPass4(nil, xs, w, evens, acc, ne, bsz, k, tail, xsb, dsb)
		packedPass4(&dst[o0], xs, w, odds, acc, no, bsz, k, tail, xsb, dsb)
	}
}

// grow returns s with at least n elements, reallocated only when it has too
// few.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		return make([]T, n)
	}
	return s
}
