package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Property tests for the one layer contract across randomized layer shapes:
// a caller-provided dst and the layer-owned buffer carry the same values, and
// a batch of B rows reproduces B passes at bsz=1 — forward rows bit for bit,
// accumulated gradients to the cross-path tolerance.

const kernelTol = 1e-12

func randVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbsDiff(a, b Vec) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// freshPair builds two structurally-identical layers with identical weights
// from the same seed, so one can run the reference path and the other the
// path under test without sharing gradient or forward state.
func freshPair(build func(rng *rand.Rand) Layer, seed int64) (ref, dut Layer) {
	return build(rand.New(rand.NewSource(seed))), build(rand.New(rand.NewSource(seed)))
}

func zeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}

func compareGrads(t *testing.T, ref, dut Layer, label string) {
	t.Helper()
	rp, dp := ref.Params(), dut.Params()
	for i := range rp {
		if d := maxAbsDiff(rp[i].Grad, dp[i].Grad); d > kernelTol {
			t.Fatalf("%s: param %s grad diverges by %g", label, rp[i].Name, d)
		}
	}
}

// layerCase describes one randomized topology for the equivalence sweep.
type layerCase struct {
	name  string
	in    int
	build func(rng *rand.Rand) Layer
}

func sweepCases(rng *rand.Rand) []layerCase {
	in := 3 + rng.Intn(40)
	out := 1 + rng.Intn(30)
	hidden := 2 + rng.Intn(20)
	ch := 1 + rng.Intn(3)
	clen := 6 + rng.Intn(20)
	kernel := 2 + rng.Intn(4)
	stride := 1 + rng.Intn(2)
	pool := 2
	convOut := (clen-kernel)/stride + 1
	return []layerCase{
		{"dense", in, func(r *rand.Rand) Layer { return NewDense(in, out, HeInit, r) }},
		{"leakyrelu", in, func(r *rand.Rand) Layer { return NewLeakyReLU(0.01) }},
		{"softmax", in, func(r *rand.Rand) Layer { return NewSoftmax() }},
		{"conv1d", ch * clen, func(r *rand.Rand) Layer { return NewConv1D(ch, clen, 2, kernel, stride, r) }},
		{"maxpool", ch * clen, func(r *rand.Rand) Layer { return NewMaxPool1D(ch, clen, pool) }},
		{"sequential", in, func(r *rand.Rand) Layer {
			return NewSequential(in,
				NewDense(in, hidden, HeInit, r), NewLeakyReLU(0.01),
				NewDense(hidden, out, XavierInit, r),
			)
		}},
		{"conv-stack", clen, func(r *rand.Rand) Layer {
			conv := NewConv1D(1, clen, 2, kernel, stride, r)
			return NewSequential(clen,
				conv, NewLeakyReLU(0.01),
				NewDense(2*convOut, out, HeInit, r),
			)
		}},
		{"multibranch", in, func(r *rand.Rand) Layer {
			half := in / 2
			return NewMultiBranch(in,
				Branch{Ranges: [][2]int{{0, half}}, Net: NewDense(half, 4, HeInit, r)},
				Branch{Ranges: [][2]int{{half / 2, in}}, Net: NewDense(in-half/2, 3, HeInit, r)},
			)
		}},
	}
}

// TestDstMatchesLayerBuffer: a pass into a caller-provided dst must equal the
// pass into the layer-owned buffer (dst == nil) bit for bit, forward values,
// input gradients and accumulated parameter gradients alike.
func TestDstMatchesLayerBuffer(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		shapes := rand.New(rand.NewSource(int64(1000 + trial)))
		for _, tc := range sweepCases(shapes) {
			ref, dut := freshPair(tc.build, int64(trial))
			dataRng := rand.New(rand.NewSource(int64(5000 + trial)))
			x := randVec(dataRng, tc.in)
			want := ref.Forward(nil, x, 1)
			got := dut.Forward(make(Vec, len(want)), x, 1)
			if d := maxAbsDiff(want, got); d > 0 {
				t.Fatalf("%s trial %d: Forward(dst) diverges from Forward(nil) by %g", tc.name, trial, d)
			}
			g := randVec(dataRng, len(want))
			zeroGrads(ref)
			zeroGrads(dut)
			wantGin := ref.Backward(nil, g, 1)
			gotGin := dut.Backward(make(Vec, tc.in), g, 1)
			if d := maxAbsDiff(wantGin, gotGin); d > 0 {
				t.Fatalf("%s trial %d: Backward(dst) diverges from Backward(nil) by %g", tc.name, trial, d)
			}
			compareGrads(t, ref, dut, tc.name)
		}
	}
}

// TestBatchMatchesScalar: one Forward/Backward over B rows must reproduce B
// sequential bsz=1 passes — output rows bit for bit (the contract the serve
// daemon's batch-size independence rests on), input gradients and accumulated
// parameter gradients to the cross-path tolerance.
func TestBatchMatchesScalar(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		shapes := rand.New(rand.NewSource(int64(2000 + trial)))
		bsz := 1 + shapes.Intn(9)
		for _, tc := range sweepCases(shapes) {
			ref, dut := freshPair(tc.build, int64(100+trial))
			dataRng := rand.New(rand.NewSource(int64(7000 + trial)))
			outDim := ref.OutSize(tc.in)
			xs := randVec(dataRng, bsz*tc.in)
			gs := randVec(dataRng, bsz*outDim)

			// Reference: one bsz=1 forward and backward per row, in row order.
			zeroGrads(ref)
			wantOut := make(Vec, 0, bsz*outDim)
			wantGin := make(Vec, 0, bsz*tc.in)
			for b := 0; b < bsz; b++ {
				wantOut = append(wantOut, ref.Forward(nil, xs[b*tc.in:(b+1)*tc.in], 1)...)
				wantGin = append(wantGin, ref.Backward(nil, gs[b*outDim:(b+1)*outDim], 1)...)
			}

			zeroGrads(dut)
			gotOut := dut.Forward(nil, xs, bsz)
			if d := maxAbsDiff(wantOut, gotOut); d > 0 {
				t.Fatalf("%s trial %d bsz %d: batch forward diverges by %g", tc.name, trial, bsz, d)
			}
			gotGin := dut.Backward(nil, gs, bsz)
			if d := maxAbsDiff(wantGin, gotGin); d > kernelTol {
				t.Fatalf("%s trial %d bsz %d: batch input grad diverges by %g", tc.name, trial, bsz, d)
			}
			compareGrads(t, ref, dut, tc.name)
		}
	}
}

// TestBatchedDenseGradCheck: finite-difference check straight through the
// minibatch kernel, proving the matrix-matrix forward/backward pair is a
// consistent derivative, not just consistent with the scalar path.
func TestBatchedDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const in, out, bsz = 7, 5, 4
	d := NewDense(in, out, HeInit, rng)
	x := randVec(rng, bsz*in)
	target := randVec(rng, bsz*out)
	loss := func() float64 {
		y := d.Forward(nil, x, bsz)
		l, _ := MSE(y, target)
		return l
	}
	backward := func() {
		y := d.Forward(nil, x, bsz)
		_, g := MSE(y, target)
		d.Backward(nil, g, bsz)
	}
	if worst := GradCheck(d.Params(), loss, backward, 1e-5, 0); worst > 1e-4 {
		t.Fatalf("batched Dense gradient check failed: max rel err %v", worst)
	}
}

// TestDenseInputAliasing is the regression test for the input-retention
// hazard: Forward used to retain the caller's slice, so mutating it between
// Forward and Backward corrupted the weight gradient. Layers now copy.
func TestDenseInputAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref, dut := freshPair(func(r *rand.Rand) Layer { return NewDense(6, 4, HeInit, r) }, 42)
	x := randVec(rng, 6)
	g := randVec(rng, 4)

	xCopy := append(Vec(nil), x...)
	ref.Forward(nil, xCopy, 1)
	zeroGrads(ref)
	ref.Backward(nil, g, 1)

	dut.Forward(nil, x, 1)
	Fill(x, 1e9) // caller reuses its buffer before Backward
	zeroGrads(dut)
	dut.Backward(nil, g, 1)

	compareGrads(t, ref, dut, "dense-aliasing")
}

// TestActivationInputAliasing covers the same hazard for activations, which
// also used to retain the caller's slice.
func TestActivationInputAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewLeakyReLU(0.01)
	x := Vec{1, -2, 3, -4}
	l.Forward(nil, x, 1)
	x[0], x[1] = -1, 2 // flip signs after forward
	gin := l.Backward(nil, Vec{1, 1, 1, 1}, 1)
	want := Vec{1, 0.01, 1, 0.01} // routing must follow the ORIGINAL input
	if d := maxAbsDiff(gin, want); d > 0 {
		t.Fatalf("LeakyReLU used mutated input: gin=%v want %v", gin, want)
	}
	_ = rng
}

// withGrads gives a clone's params the private gradient buffers a training
// worker gives them before it runs Backward; clones come without.
func withGrads(l Layer) Layer {
	for _, p := range l.Params() {
		p.Grad = make(Vec, len(p.Value))
	}
	return l
}

// TestSharedClone: clones must share weight values (an update through the
// master is visible to the clone) but keep private gradients.
func TestSharedClone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	master := NewSequential(8,
		NewDense(8, 6, HeInit, rng), NewLeakyReLU(0.01),
		NewDense(6, 3, HeInit, rng),
	)
	clone := withGrads(SharedClone(master)).(*Sequential)

	x := randVec(rng, 8)
	want := master.Forward(nil, x, 1)
	got := clone.Forward(nil, x, 1)
	if d := maxAbsDiff(want, got); d > 0 {
		t.Fatalf("clone forward diverges by %g", d)
	}

	// Mutate a master weight; the clone must see it (shared Values).
	master.Params()[0].Value[0] += 0.5
	want = master.Forward(nil, x, 1)
	got = clone.Forward(nil, x, 1)
	if d := maxAbsDiff(want, got); d > 0 {
		t.Fatalf("clone did not observe master weight update (diff %g)", d)
	}

	// Backward on the clone must not touch master gradients.
	zeroGrads(master)
	g := randVec(rng, 3)
	clone.Backward(nil, g, 1)
	for _, p := range master.Params() {
		for _, v := range p.Grad {
			if v != 0 {
				t.Fatal("clone backward leaked into master gradients")
			}
		}
	}
}

// TestSequentialZeroAlloc: after warm-up, a pass through layer-owned buffers
// must not allocate — the property the §V-F decision-latency target rests
// on.
func TestSequentialZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewSequential(32,
		NewDense(32, 24, HeInit, rng), NewLeakyReLU(0.01),
		NewDense(24, 8, HeInit, rng),
	)
	x := randVec(rng, 32)
	g := randVec(rng, 8)
	net.Forward(nil, x, 1)
	net.Backward(nil, g, 1)
	allocs := testing.AllocsPerRun(50, func() {
		net.Forward(nil, x, 1)
		net.Backward(nil, g, 1)
	})
	if allocs != 0 {
		t.Fatalf("layer-buffer pass allocates %v times per run, want 0", allocs)
	}
}

// TestEnsure pins the scratch-buffer growth contract.
func TestEnsure(t *testing.T) {
	v := Ensure(nil, 4)
	if len(v) != 4 {
		t.Fatalf("Ensure(nil,4) len %d", len(v))
	}
	w := Ensure(v, 2)
	if &w[0] != &v[0] || len(w) != 2 {
		t.Fatal("Ensure must reuse capacity when shrinking")
	}
	u := Ensure(v, 100)
	if len(u) != 100 {
		t.Fatalf("Ensure growth len %d", len(u))
	}
}

// TestCloneViewsEveryLayer walks every constructor, and a nest of them,
// through both clone views: the copy is the original's type with the
// original's arithmetic, its parameters alias the live Values (SharedClone) or
// the published snapshot (SnapshotClone) and carry no gradient storage, and
// its forward state, and the gradients a worker gives it, are its own.
func TestCloneViewsEveryLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := append(sweepCases(rng), layerCase{"nested", 12, func(r *rand.Rand) Layer {
		return NewSequential(12, overlapNet(r), NewLeakyReLU(0.01),
			NewSequential(6, NewDense(6, 4, HeInit, r), NewSoftmax()))
	}})
	views := []struct {
		name  string
		clone func(Layer) Layer
		value func(*Param) Vec
	}{
		{"shared", SharedClone, func(p *Param) Vec { return p.Value }},
		{"snapshot", SnapshotClone, (*Param).Snapshot},
	}
	for _, c := range cases {
		for _, v := range views {
			orig := c.build(rand.New(rand.NewSource(7)))
			cl := v.clone(orig)
			label := c.name + "/" + v.name
			if reflect.TypeOf(cl) != reflect.TypeOf(orig) {
				t.Fatalf("%s: clone is a %T, original a %T", label, cl, orig)
			}
			op, cp := orig.Params(), cl.Params()
			if len(cp) != len(op) {
				t.Fatalf("%s: clone has %d params, original %d", label, len(cp), len(op))
			}
			for i, p := range op {
				if cp[i].Name != p.Name || &cp[i].Value[0] != &v.value(p)[0] {
					t.Fatalf("%s: param %s does not alias the original's %s buffer", label, p.Name, v.name)
				}
				if cp[i].Grad != nil {
					t.Fatalf("%s: param %s has gradient storage, a clone has none", label, p.Name)
				}
			}
			withGrads(cl)
			x := randVec(rng, 2*c.in)
			want := Copy(orig.Forward(nil, x[:c.in], 1))
			// The clone's two-row pass must leave the original's one-row
			// forward state alone: its Backward below checks the row count.
			got := cl.Forward(nil, x, 2)
			if d := maxAbsDiff(want, got[:len(want)]); d != 0 {
				t.Fatalf("%s: clone forward differs from the original's by %g", label, d)
			}
			cl.Backward(nil, randVec(rng, len(got)), 2)
			for _, p := range op {
				if L2Norm(p.Grad) != 0 {
					t.Fatalf("%s: clone backward reached the original's %s gradient", label, p.Name)
				}
			}
			orig.Backward(nil, randVec(rng, len(want)), 1)
		}
	}
}
