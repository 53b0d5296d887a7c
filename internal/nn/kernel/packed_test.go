package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// packedSet is the set whose packed path the tests below hold against its own
// DenseForward, or nil when this host has none.
func packedSet(t testing.TB) *Set {
	s := nativeSet()
	if s == nil || s.Pack == nil {
		t.Skip("no kernel set with a packed path on this host")
	}
	return s
}

// encoderShaped is a state vector the way encode.EncodeInto lays one out: a
// few dense job slots, then one (0, time-to-free) pair per busy unit and one
// (1, 0) pair per free unit, busy units first.
func encoderShaped(r *rand.Rand, in int, busy float64) []float64 {
	x := make([]float64, in)
	slots := min(in, 8)
	for i := 0; i < slots; i++ {
		x[i] = r.Float64()
	}
	units := (in - slots) / 2
	nbusy := int(busy*float64(units) + 0.5)
	for u := 0; u < units; u++ {
		if u < nbusy {
			x[slots+2*u+1] = 48 * r.Float64()
		} else {
			x[slots+2*u] = 1
		}
	}
	return x
}

// packedInputs are the inputs every shape is tried on: encoder-shaped at five
// busy levels, all-zero, dense random, and a sparse vector salted with -0,
// subnormals and a value whose products underflow.
func packedInputs(r *rand.Rand, in int) map[string][]float64 {
	xs := map[string][]float64{
		"zero":  make([]float64, in),
		"dense": fill(r, in),
	}
	for _, busy := range []float64{0, 0.1, 0.5, 0.9, 1} {
		xs[fmt.Sprintf("busy%.0f%%", 100*busy)] = encoderShaped(r, in, busy)
	}
	odd := make([]float64, in)
	for i := range odd {
		switch r.Intn(8) {
		case 0:
			odd[i] = math.Copysign(0, -1)
		case 1:
			odd[i] = math.Float64frombits(uint64(1 + r.Intn(1000))) // subnormal
		case 2:
			odd[i] = -5e-324
		case 3:
			odd[i] = r.NormFloat64()
		}
	}
	xs["odd"] = odd
	return xs
}

func samePacked(t *testing.T, s *Set, what string, x, w, b []float64, in, out int) {
	t.Helper()
	want := make([]float64, out)
	s.DenseForward(want, x, w, b, in, out, 1)
	var p Packed
	if !s.Pack(&p, w, b, in, out) {
		if out%4 == 0 {
			t.Fatalf("%s: Pack declined a finite %dx%d layer", what, out, in)
		}
		return // a declined layer runs dense, which is equal by definition
	}
	got := make([]float64, out)
	for i := range got {
		got[i] = math.NaN() // every output must be written
	}
	s.PackedForward(got, x, &p, new(PackedScratch))
	for o := range want {
		if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
			t.Fatalf("%s: output %d: packed %v (%#x), dense %v (%#x)", what, o,
				got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
		}
	}
}

// The packed forward is DenseForward at bsz = 1 to the bit, in the set's
// 256-bit forms and in its 512-bit ones: every in mod 8 residue (1…64), the
// repository's three first-layer widths, row blocks of 16, 8 and 4 in every
// combination, a layer Pack declines for its shape, weights of both signs.
func TestPackedEqualsDenseBitwise(t *testing.T) {
	s := packedSet(t)
	for _, wide := range []bool{false, true} {
		name := map[bool]string{false: "Narrow", true: "Wide"}[wide]
		t.Run(name, func(t *testing.T) {
			if wide && !strings.Contains(Features(), "forms=wide") {
				t.Skipf("no 512-bit forms on this CPU (probed: %s)", Features())
			}
			SetWide(wide)
			defer SetWide(true)
			r := rand.New(rand.NewSource(11))
			ins := []int{394, 746, 11410}
			for in := 1; in <= 64; in++ {
				ins = append(ins, in)
			}
			for _, in := range ins {
				outs := []int{4, 8, 12, 16, 20, 24, 28, 128, 6}
				if in == 11410 {
					outs = []int{4, 28} // 11410×128 adds nothing but time
				}
				xs := packedInputs(r, in)
				for _, out := range outs {
					w, b := fill(r, out*in), fill(r, out)
					b[0] = 0
					for name, x := range xs {
						samePacked(t, s, fmt.Sprintf("in=%d out=%d x=%s", in, out, name), x, w, b, in, out)
					}
				}
			}
		})
	}
}

// One Packed is reused from layer to layer and from weights to weights, which
// is how an actor uses it from Reset to Reset: nothing of the previous layer
// shows through, whichever of the two was larger.
func TestPackReusesItsBuffer(t *testing.T) {
	s := packedSet(t)
	r := rand.New(rand.NewSource(12))
	var p Packed
	var scr PackedScratch
	for _, shape := range [][2]int{{394, 128}, {21, 12}, {394, 128}, {4, 4}, {30, 8}} {
		in, out := shape[0], shape[1]
		w, b, x := fill(r, out*in), fill(r, out), encoderShaped(r, in, 0.5)
		if !s.Pack(&p, w, b, in, out) {
			t.Fatalf("Pack declined %dx%d", out, in)
		}
		got, want := make([]float64, out), make([]float64, out)
		s.PackedForward(got, x, &p, &scr)
		s.DenseForward(want, x, w, b, in, out, 1)
		for o := range want {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("%dx%d after reuse: output %d: packed %v, dense %v", out, in, o, got[o], want[o])
			}
		}
	}
	before := &p.w[0]
	if !s.Pack(&p, fill(r, 128*394), fill(r, 128), 394, 128) || &p.w[0] != before {
		t.Fatal("a refresh at the largest shape seen reallocated the packed copy")
	}
}

// One Packed read from several goroutines at once, each through a scratch of
// its own, gives every reader DenseForward's bits: the forward writes nothing
// of the packed copy (the race detector holds it to that).
func TestPackedSharedAcrossReaders(t *testing.T) {
	s := packedSet(t)
	r := rand.New(rand.NewSource(14))
	const in, out = 394, 128
	w, b := fill(r, out*in), fill(r, out)
	var p Packed
	if !s.Pack(&p, w, b, in, out) {
		t.Fatalf("Pack declined %dx%d", out, in)
	}
	xs := [][]float64{encoderShaped(r, in, 0.2), encoderShaped(r, in, 0.5), encoderShaped(r, in, 0.9)}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			var scr PackedScratch
			got, want := make([]float64, out), make([]float64, out)
			for i := 0; i < 50; i++ {
				x := xs[(g+i)%len(xs)]
				s.PackedForward(got, x, &p, &scr)
				s.DenseForward(want, x, w, b, in, out, 1)
				for o := range want {
					if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
						errs <- fmt.Errorf("reader %d pass %d: output %d: packed %v, dense %v", g, i, o, got[o], want[o])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// What Pack must refuse, each with the input that would tell the two paths
// apart if it did not. Skipping a zero chunk is exact because fma(w, 0, acc)
// == acc — which needs w finite, and which can flip the sign of a zero
// accumulator that a bias of -0 would then let through.
func TestPackDeclines(t *testing.T) {
	s := packedSet(t)
	r := rand.New(rand.NewSource(13))
	const in, out = 16, 8
	var p Packed
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w, b := fill(r, out*in), fill(r, out)
		w[3*in+9] = bad
		if s.Pack(&p, w, b, in, out) {
			t.Fatalf("Pack took a layer with a %v weight", bad)
		}
		w[3*in+9], w[out*in-1] = 1, bad
		if s.Pack(&p, w, b, in, out) {
			t.Fatalf("Pack took a layer whose last weight is %v", bad)
		}
	}

	// Eight products that underflow to -0 leave every lane at -0; the dense
	// path's next eight terms, +0.1 × 0, turn the lanes to +0 and the packed
	// path skips them. Only a -0 bias keeps that difference.
	w, b, x := make([]float64, out*in), make([]float64, out), make([]float64, in)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			w[o*in+i] = 0.1
			if i < 8 {
				w[o*in+i] = -0.1
			}
		}
	}
	for i := 0; i < 8; i++ {
		x[i] = 5e-324
	}
	samePacked(t, s, "underflow to -0, bias +0", x, w, b, in, out)
	b[5] = math.Copysign(0, -1)
	if s.Pack(&p, w, b, in, out) {
		t.Fatal("Pack took a layer with a -0 bias")
	}
	dense := make([]float64, out)
	s.DenseForward(dense, x, w, b, in, out, 1)
	if math.Signbit(dense[5]) {
		t.Fatal("the dense path kept -0 here: the case no longer shows why Pack declines it")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("PackedForward ran on a Packed whose Pack declined")
		}
	}()
	s.PackedForward(dense, x, &p, new(PackedScratch))
}
