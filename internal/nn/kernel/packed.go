package kernel

import "math"

// The packed layout of one Dense layer, for the avx2 set's packed forward
// (packed_amd64.go). MRSch's state vector spends two elements on every
// resource unit — (0, time-to-free) when busy, (1, 0) when free — so the even
// and the odd elements of x each carry long runs of exact zeros. The layout
// de-interleaves W's columns the way the kernel de-interleaves x, and the
// kernel multiplies only the 4-wide chunks of either half that hold a
// non-zero. The package doc's numerical contract says why the result is
// DenseForward's to the bit. The layout is plain Go data, so packing and
// reading a row back compile everywhere; only a set with a packed forward
// binds them (Set.Pack).
//
// Layout of Packed.w. With body = in - in%4 and K = ceil(body/8) chunks per
// half, rows go in blocks of 8 (then one of 4 when out%8 == 4), and a block
// of R rows holds, back to back:
//
//	even chunks  K × R × 4   chunk k, row r, lane l = W[r][2(4k+l)]
//	odd chunks   K × R × 4   chunk k, row r, lane l = W[r][2(4k+l)+1]
//	tail         (in%4) × R  column t, row r        = W[r][body+t]
//	bias         R
//
// columns at or past body reading as zero. One listed chunk of x therefore
// meets its R rows' weights in R×32 contiguous bytes.

// Packed is one Dense layer's weights and bias in the layout of a set's
// packed forward. The zero value is ready for Set.Pack; between one Pack and
// the next it is only read, so readers on several goroutines may share it,
// each with a PackedScratch of its own.
type Packed struct {
	in, out int
	w       []float64 // per row block: even chunks, odd chunks, in%4 tail columns, bias
}

// PackedScratch is where one reader's packed forward lists x's non-zero
// chunks. The zero value is ready; the first forward sizes it, and a batch
// larger than any before grows it.
type PackedScratch struct {
	xs   []float64 // the lone forward's listed chunks of xe, then of xo
	offs []int64   // each listed chunk's byte offset in a 4-row block

	// The batched forward's: every row's chunks de-interleaved, the chunks
	// any row holds a non-zero in, and each row's running sums.
	bx    []float64 // per row: K even chunks, K odd chunks, the in%4 tail
	bmask []uint8   // per chunk, even then odd: non-zero in some row
	boffs []int64   // the listed chunks' byte offsets in a row of bx
	bacc  []float64 // per row: a pass's accumulators, then its even sums
}

// packGeometry reports the chunks per half and the values a row takes in the
// layout (8K + in%4 + 1, the bias included) of an in-wide layer.
func packGeometry(in int) (k, perRow int) {
	k = (in - in%4 + 4) / 8
	return k, 8*k + in%4 + 1
}

// pack is Set.Pack for a set with a packed forward. It declines, and leaves p
// unusable until the next pack that succeeds, a shape the kernel does not
// take, a weight that is a NaN or an infinity and a bias of -0.
func pack(p *Packed, w, b []float64, in, out int) bool {
	p.in, p.out = 0, 0
	if in <= 0 || out <= 0 || out%4 != 0 || !allFinite(w[:out*in]) {
		return false
	}
	body, tail := in-in%4, in%4
	k, perRow := packGeometry(in)
	if cap(p.w) < out*perRow {
		p.w = make([]float64, out*perRow)
	}
	p.w = p.w[:out*perRow]

	for o0, rows := 0, 8; o0 < out; o0 += rows {
		if out-o0 < 8 {
			rows = 4
		}
		blk := p.w[o0*perRow : (o0+rows)*perRow]
		tails, bias := blk[8*k*rows:], blk[(8*k+tail)*rows:]
		for r := 0; r < rows; r++ {
			row := w[(o0+r)*in : (o0+r+1)*in]
			for c, at := 0, r*4; c < k; c, at = c+1, at+4*rows {
				var src [8]float64 // a half chunk's padding lanes stay zero
				copy(src[:], row[8*c:body])
				even, odd := blk[at:at+4], blk[at+4*k*rows:at+4*k*rows+4]
				even[0], even[1], even[2], even[3] = src[0], src[2], src[4], src[6]
				odd[0], odd[1], odd[2], odd[3] = src[1], src[3], src[5], src[7]
			}
			for t, v := range row[body:] {
				tails[t*rows+r] = v
			}
			bv := b[o0+r]
			if bv == 0 && math.Signbit(bv) {
				return false
			}
			bias[r] = bv
		}
	}
	p.in, p.out = in, out
	return true
}

// Shape returns the in and out of the layer p holds, zeros when it holds none
// (never packed, or the last Pack declined).
func (p *Packed) Shape() (in, out int) { return p.in, p.out }

// Row writes row o of the layer's weights, the in values Pack read from
// w[o*in:(o+1)*in], into dst[:in] and returns that slice: the layout read
// back, bit for bit.
func (p *Packed) Row(dst []float64, o int) []float64 {
	in := p.in
	if in == 0 || o < 0 || o >= p.out {
		panic("kernel: Packed.Row outside a packed layer")
	}
	body := in - in%4
	k, perRow := packGeometry(in)
	rows, o0 := 8, o&^7
	if p.out-o0 < 8 {
		rows = 4
	}
	blk, r := p.w[o0*perRow:(o0+rows)*perRow], o-o0
	dst = dst[:in]
	for c, at := 0, r*4; c < k; c, at = c+1, at+4*rows {
		even, odd := blk[at:at+4], blk[at+4*k*rows:at+4*k*rows+4]
		src := [8]float64{even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3], odd[3]}
		copy(dst[8*c:body], src[:])
	}
	tails := blk[8*k*rows:]
	for t := range in - body {
		dst[body+t] = tails[t*rows+r]
	}
	return dst
}

// allFinite reports whether s holds no NaN and no infinity: v-v is 0 for a
// finite v and NaN otherwise, and NaN is sticky in a sum.
func allFinite(s []float64) bool {
	var a0, a1, a2, a3 float64
	for ; len(s) >= 4; s = s[4:] {
		a0 += s[0] - s[0]
		a1 += s[1] - s[1]
		a2 += s[2] - s[2]
		a3 += s[3] - s[3]
	}
	for _, v := range s {
		a0 += v - v
	}
	return a0+a1+(a2+a3) == 0
}
