//go:build !purego

package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The 512-bit forms against the 256-bit ones they stand in for, bit for bit.
// Both are called directly, so these tests do not depend on which the set
// holds; without AVX-512 they skip by name, with what the probe saw.

func requireWide(t testing.TB) {
	t.Helper()
	if !wideForms {
		t.Skipf("no 512-bit forms on this CPU (probed: %s)", Features())
	}
}

// formShapes covers every in mod 8 (twice over, so the 8-wide loop runs 0, 1
// and 2 times), every out mod 8 with none, one and two blocks of eight rows,
// every bsz mod 4 on both sides of a tile, and the engine's three batched
// layers.
var (
	formIns  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 23, 64, 70}
	formOuts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 23}
	formBsz  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16}
)

// matvecEach is the 256-bit one-sample forward, matvec, once per sample.
func matvecEach(dst, x, w, b []float64, in, out, bsz int) {
	for bi := 0; bi < bsz; bi++ {
		avx2DenseForward(dst[bi*out:], x[bi*in:], w, b, in, out, 1)
	}
}

func transposed(w []float64, in, out int) []float64 {
	wt := make([]float64, in*out)
	goTranspose(wt, w, in, out)
	return wt
}

func TestWideDenseFormsBitwise(t *testing.T) {
	requireWide(t)
	r := rand.New(rand.NewSource(21))
	check := func(in, out, bsz int, nonFinite bool) {
		x, w, b := awkward(r, bsz*in, nonFinite), awkward(r, out*in, nonFinite), awkward(r, out, nonFinite)
		grad := awkward(r, bsz*out, nonFinite)
		what := fmt.Sprintf("in=%d out=%d bsz=%d nonfinite=%v", in, out, bsz, nonFinite)

		got, want := make([]float64, bsz*out), make([]float64, bsz*out)
		for i := range got {
			got[i] = math.Pi // every output must be written
		}
		wideDenseForward(got, x, w, b, in, out, bsz)
		avx2DenseForward(want, x, w, b, in, out, bsz)
		sameBits(t, what+" forward", got, want)
		if bsz < 4 { // the one-sample form, sample by sample
			matvecEach(want, x, w, b, in, out, bsz)
			sameBits(t, what+" forward vs matvec", got, want)
		}

		wt := transposed(w, in, out)
		gotG, wantG := make([]float64, bsz*in), make([]float64, bsz*in)
		for i := range gotG {
			gotG[i] = math.Pi
		}
		wideInputGrad(gotG, grad, wt, in, out, bsz)
		avx2Prims.inputGrad(wantG, grad, wt, in, out, bsz)
		sameBits(t, what+" inputgrad", gotG, wantG)
	}
	for _, in := range formIns {
		for _, out := range formOuts {
			for _, bsz := range formBsz {
				check(in, out, bsz, false)
				check(in, out, bsz, true)
			}
		}
	}
	for _, shape := range [][2]int{{394, 128}, {128, 64}, {64, 64}, {64, 120}} {
		for _, bsz := range []int{1, 2, 3, 4, 16, 19} {
			check(shape[0], shape[1], bsz, false)
			check(shape[0], shape[1], bsz, true)
		}
	}

	// Every product underflows to -0, so every lane holds -0 when the in%8 >= 4
	// half-step runs, and a -0 bias lets the sign through to the output: an
	// FMA that touched lanes 4-7 there (0·0 + -0 is +0) would show.
	for _, in := range []int{12, 13, 15, 20, 44} {
		for _, out := range []int{8, 16, 20} {
			for _, bsz := range []int{1, 3, 4} {
				x, w, b := make([]float64, bsz*in), make([]float64, out*in), make([]float64, out)
				for i := range x {
					x[i] = 5e-324
				}
				for i := range w {
					w[i] = -0.1
				}
				for i := range b {
					b[i] = math.Copysign(0, -1)
				}
				got, want := make([]float64, bsz*out), make([]float64, bsz*out)
				wideDenseForward(got, x, w, b, in, out, bsz)
				avx2DenseForward(want, x, w, b, in, out, bsz)
				what := fmt.Sprintf("in=%d out=%d bsz=%d underflow to -0", in, out, bsz)
				sameBits(t, what, got, want)
				if !math.Signbit(want[0]) {
					t.Fatalf("%s: the 256-bit form stored %v; the case no longer holds a -0 lane", what, want[0])
				}
			}
		}
	}
}

func TestWideAccumFormsBitwise(t *testing.T) {
	requireWide(t)
	r := rand.New(rand.NewSource(22))
	check := func(in, out, bsz int, nonFinite bool) {
		x, grad := awkward(r, bsz*in, nonFinite), awkward(r, bsz*out, nonFinite)
		coefficientRows(r, grad, out, bsz)
		gw, gb := awkward(r, out*in, nonFinite), awkward(r, out, nonFinite)
		gwN, gbN := append([]float64(nil), gw...), append([]float64(nil), gb...)
		wideAccumGrads(gw, gb, grad, x, in, out, bsz)
		avx2Prims.accumGrads(gwN, gbN, grad, x, in, out, bsz)
		what := fmt.Sprintf("in=%d out=%d bsz=%d nonfinite=%v", in, out, bsz, nonFinite)
		sameBits(t, what+" gw", gw, gwN)
		sameBits(t, what+" gb", gb, gbN)
	}
	for _, in := range formIns {
		for _, out := range formOuts {
			for bsz := 1; bsz <= 17; bsz++ { // every bsz mod 8, with 0, 1 and 2 blocks of eight
				check(in, out, bsz, false)
				check(in, out, bsz, true)
			}
		}
	}
	for _, shape := range [][2]int{{394, 128}, {128, 64}, {64, 120}} {
		check(shape[0], shape[1], 16, false)
		check(shape[0], shape[1], 27, false)
	}

	// All rows skipped, one live row (no partner at all), and a live row
	// between skipped ones: gw moves only where a coefficient is non-zero.
	const in, out, bsz = 13, 7, 8
	for _, live := range [][]int{{}, {0}, {6}, {3}, {1, 5}, {0, 2, 6}} {
		x, grad := fill(r, bsz*in), make([]float64, bsz*out)
		for _, o := range live {
			grad[r.Intn(bsz)*out+o] = r.NormFloat64()
		}
		gw := fill(r, out*in)
		before, gwN := append([]float64(nil), gw...), append([]float64(nil), gw...)
		gb, gbN := make([]float64, out), make([]float64, out)
		wideAccumGrads(gw, gb, grad, x, in, out, bsz)
		avx2Prims.accumGrads(gwN, gbN, grad, x, in, out, bsz)
		sameBits(t, fmt.Sprintf("live rows %v gw", live), gw, gwN)
		for o := 0; o < out; o++ {
			moved := differ(gw[o*in:(o+1)*in], before[o*in:(o+1)*in]) >= 0
			isLive := false
			for _, l := range live {
				isLive = isLive || l == o
			}
			if moved != isLive {
				t.Fatalf("live rows %v: row %d moved=%v", live, o, moved)
			}
		}
	}
}

// chainDot is the dot product every form of the avx2 set computes, written
// out in Go: element i of the 4-wide body on FMA chain i mod 8, the chains
// folded (l0+l4)+(l2+l6) + (l1+l5)+(l3+l7), the n%4 tail by FMA after the
// fold, the bias last. Two deliberate mistakes are selectable: the half-step
// of n%8 >= 4 landing on lanes 4-7 instead of 0-3 (what an unmasked or
// mis-masked 512-bit FMA would do), and a fold that pairs neighbours.
func chainDot(a, b []float64, bias float64, halfStepHigh, foldNeighbours bool) float64 {
	n := len(a)
	var l [8]float64
	for i := 0; i < n&^3; i++ {
		k := i % 8
		if halfStepHigh && i >= n&^7 {
			k += 4
		}
		l[k] = math.FMA(b[i], a[i], l[k])
	}
	s := ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
	if foldNeighbours {
		s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
	}
	for i := n &^ 3; i < n; i++ {
		s = math.FMA(b[i], a[i], s)
	}
	return s + bias
}

// The bitwise comparison above can tell a wrong chain from the right one: the
// tile (bsz = 4) and the one-sample form (bsz = 1) equal chainDot on every
// shape, and stop equalling it when one lane assignment or the fold order is
// perturbed.
func TestWideFormsSensitivity(t *testing.T) {
	requireWide(t)
	r := rand.New(rand.NewSource(23))
	for _, bsz := range []int{4, 1} {
		var exact, lane, fold int
		for in := 1; in <= 40; in++ {
			const out = 8
			x, w, b := fill(r, bsz*in), fill(r, out*in), fill(r, out)
			got := make([]float64, bsz*out)
			wideDenseForward(got, x, w, b, in, out, bsz)
			for bi := 0; bi < bsz; bi++ {
				for o := 0; o < out; o++ {
					wr, xr := w[o*in:(o+1)*in], x[bi*in:(bi+1)*in]
					g := math.Float64bits(got[bi*out+o])
					if g != math.Float64bits(chainDot(wr, xr, b[o], false, false)) {
						exact++
					}
					if in%8 >= 4 && g != math.Float64bits(chainDot(wr, xr, b[o], true, false)) {
						lane++
					}
					if in >= 8 && g != math.Float64bits(chainDot(wr, xr, b[o], false, true)) {
						fold++
					}
				}
			}
		}
		if exact != 0 {
			t.Fatalf("bsz=%d: %d outputs of the 512-bit form are not the documented chain", bsz, exact)
		}
		if lane == 0 || fold == 0 {
			t.Fatalf("bsz=%d: a perturbed chain went unnoticed: half-step on lanes 4-7 differed %d times, neighbour fold %d times", bsz, lane, fold)
		}
	}

	// The packed form's sixteen-row pass keeps two rows to a register and
	// reorders the sums before it stores them: it equals the dense rows, and
	// an output swapped with the row it shares a register or a reorder slot
	// with would not.
	const in, out = 394, 32
	x, w, b := encoderShaped(r, in, 0.5), fill(r, out*in), fill(r, out)
	var p Packed
	if !avx2Pack(&p, w, b, in, out) {
		t.Fatal("Pack declined a finite layer")
	}
	got, want := make([]float64, out), make([]float64, out)
	widePackedForward(got, x, &p, new(PackedScratch))
	wideDenseForward(want, x, w, b, in, out, 1)
	sameBits(t, "packed", got, want)
	for o := 0; o < out; o += 2 {
		for _, other := range []int{o + 1, o ^ 4} {
			swapped := append([]float64(nil), got...)
			swapped[o], swapped[other] = swapped[other], swapped[o]
			if differ(swapped, want) < 0 {
				t.Fatalf("rows %d and %d swapped went unnoticed", o, other)
			}
		}
	}
}

// FuzzDenseForms holds all three kernels' 512-bit forms to their 256-bit ones
// on fuzzer-chosen shapes and raw bit patterns (every NaN payload, every
// subnormal).
func FuzzDenseForms(f *testing.F) {
	f.Add(uint8(13), uint8(6), uint8(9), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(64), uint8(8), uint8(16), []byte("a gradient step whose matmuls run from registers"))
	f.Add(uint8(4), uint8(4), uint8(4), []byte{})
	f.Add(uint8(70), uint8(19), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x55})
	f.Fuzz(func(t *testing.T, in8, out8, bsz8 uint8, raw []byte) {
		requireWide(t)
		in, out, bsz := 1+int(in8)%72, 1+int(out8)%20, 1+int(bsz8)%20
		at := 0
		draw := func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				var word [8]byte
				for k := range word {
					if len(raw) > 0 {
						word[k] = raw[at%len(raw)] + byte(at/len(raw))
						at++
					}
				}
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
			}
			return s
		}
		x, w, b, grad := draw(bsz*in), draw(out*in), draw(out), draw(bsz*out)

		got, want := make([]float64, bsz*out), make([]float64, bsz*out)
		wideDenseForward(got, x, w, b, in, out, bsz)
		avx2DenseForward(want, x, w, b, in, out, bsz)
		sameBits(t, "forward", got, want)
		if bsz < 4 {
			matvecEach(want, x, w, b, in, out, bsz)
			sameBits(t, "forward vs matvec", got, want)
		}

		wt := transposed(w, in, out)
		gotG, wantG := make([]float64, bsz*in), make([]float64, bsz*in)
		wideInputGrad(gotG, grad, wt, in, out, bsz)
		avx2Prims.inputGrad(wantG, grad, wt, in, out, bsz)
		sameBits(t, "inputgrad", gotG, wantG)

		gw, gb := draw(out*in), draw(out)
		gwN, gbN := append([]float64(nil), gw...), append([]float64(nil), gb...)
		wideAccumGrads(gw, gb, grad, x, in, out, bsz)
		avx2Prims.accumGrads(gwN, gbN, grad, x, in, out, bsz)
		sameBits(t, "gw", gw, gwN)
		sameBits(t, "gb", gb, gbN)
	})
}
