//go:build amd64 && !purego

package kernel

import (
	"math"
	"slices"
)

// The packed one-sample forward of the avx2 set. MRSch's state vector spends
// two elements on every resource unit — (0, time-to-free) when busy, (1, 0)
// when free — so the even and the odd elements of x each carry long runs of
// exact zeros. Pack de-interleaves W's columns the way the kernel
// de-interleaves x, and the kernel multiplies only the 4-wide chunks of
// either half that hold a non-zero. The package doc's numerical contract
// says why the result is DenseForward's to the bit.
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

//go:noescape
func packedMatvec(dst, x, w, xs *float64, offs *int64, in, out, wide int)

func avx2Pack(p *Packed, w, b []float64, in, out int) bool {
	p.in, p.out = 0, 0
	if in <= 0 || out <= 0 || out%4 != 0 || !allFinite(w[:out*in]) {
		return false
	}
	body, tail := in-in%4, in%4
	k := (body + 4) / 8 // 4-wide chunks per half
	perRow := 8*k + tail + 1
	p.w = slices.Grow(p.w[:0], out*perRow)[:out*perRow]

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

func avx2PackedForward(dst, x []float64, p *Packed, s *PackedScratch) {
	packedForward(dst, x, p, s, 0)
}

// widePackedForward is the packed forward with its 8-row blocks taken two at a
// time in 512-bit registers (packed_amd64.s), the same bits.
func widePackedForward(dst, x []float64, p *Packed, s *PackedScratch) {
	packedForward(dst, x, p, s, 1)
}

func packedForward(dst, x []float64, p *Packed, s *PackedScratch, wide int) {
	if p.in == 0 {
		panic("kernel: PackedForward without a successful Pack")
	}
	_, _ = dst[p.out-1], x[p.in-1]
	k := (p.in - p.in%4 + 4) / 8 // 4-wide chunks per half, as Pack laid them
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
