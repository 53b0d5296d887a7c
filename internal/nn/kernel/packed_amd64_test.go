//go:build !purego

package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzPackedBatch holds the batched packed forward, in both forms and at
// every batch size from 1 to 17 (one included: the batched routine itself,
// not the lone forward the set sends a single row to), to DenseForward row
// by row on fuzzer-chosen shapes — every in%4 tail, out a multiple of four
// with out%8 == 4 among them, chunk lists of one to three segments — and
// rows whose 8-element groups are zeroed, salted or set to raw bit patterns
// by the fuzzer's bytes, row by row.
func FuzzPackedBatch(f *testing.F) {
	f.Add(uint8(131), uint8(7), uint8(16), int64(1), []byte{0xff, 0, 0x0f, 0xf0})
	f.Add(uint8(3), uint8(0), uint8(0), int64(2), []byte{})
	f.Add(uint8(248), uint8(10), uint8(5), int64(3), []byte("some rows zero where others are not"))
	f.Add(uint8(20), uint8(2), uint8(16), int64(4), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, in8, out8, bsz8 uint8, seed int64, raw []byte) {
		in, out, bsz := 1+3*int(in8), 4*(1+int(out8)%11), 1+int(bsz8)%17
		r := rand.New(rand.NewSource(seed))
		w, b := fill(r, out*in), fill(r, out)
		x := make([]float64, 0, bsz*in)
		at := 0
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			at++
			return raw[(at-1)%len(raw)]
		}
		for bi := 0; bi < bsz; bi++ {
			row := encoderShaped(r, in, r.Float64())
			for g := 0; g < in; g += 8 {
				grp := row[g:min(g+8, in)]
				switch c := next(); {
				case c < 64:
					clear(grp)
				case c < 72:
					for i := range grp {
						grp[i] = math.Copysign(0, -1)
					}
				case c < 80:
					var word [8]byte
					for i := range grp {
						for k := range word {
							word[k] = next()
						}
						grp[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
					}
				}
			}
			x = append(x, row...)
		}
		var p Packed
		if !pack(&p, w, b, in, out) {
			t.Fatalf("Pack declined a finite %dx%d layer", out, in)
		}
		want := make([]float64, bsz*out)
		for bi := 0; bi < bsz; bi++ {
			avx2DenseForward(want[bi*out:(bi+1)*out], x[bi*in:(bi+1)*in], w, b, in, out, 1)
		}
		forms := []bool{false}
		if wideForms {
			forms = append(forms, true)
		}
		var scr PackedScratch
		for _, wide := range forms {
			got := make([]float64, bsz*out)
			for i := range got {
				got[i] = math.Pi
			}
			packedBatchForward(got, x, bsz, &p, &scr, wide)
			if i := differ(got, want); i >= 0 {
				t.Fatalf("in=%d out=%d bsz=%d wide=%v: row %d output %d: packed %v (%#x), dense %v (%#x)",
					in, out, bsz, wide, i/out, i%out, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
