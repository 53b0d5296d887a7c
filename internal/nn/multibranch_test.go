package nn

import (
	"math/rand"
	"testing"
)

func TestMultiBranchForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Input of 10: branch A sees [0,4), branch B sees [0,2)+[4,10) (overlap
	// on the first two elements, like per-resource nets sharing job slots).
	m := NewMultiBranch(10,
		Branch{Ranges: [][2]int{{0, 4}}, Net: NewDense(4, 3, HeInit, rng)},
		Branch{Ranges: [][2]int{{0, 2}, {4, 10}}, Net: NewDense(8, 5, HeInit, rng)},
	)
	if got := m.OutSize(10); got != 8 {
		t.Fatalf("OutSize = %d, want 8", got)
	}
	out := m.Forward(nil, make(Vec, 10), 1)
	if len(out) != 8 {
		t.Fatalf("forward len = %d", len(out))
	}
}

func TestMultiBranchRejectsBadRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][2]int{{-1, 3}, {2, 12}, {5, 5}, {6, 2}}
	for _, r := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v accepted", r)
				}
			}()
			NewMultiBranch(10, Branch{Ranges: [][2]int{r}, Net: NewDense(r[1]-r[0], 2, HeInit, rng)})
		}()
	}
}

func TestMultiBranchGradCheckWithOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMultiBranch(12,
		Branch{Ranges: [][2]int{{0, 4}, {4, 8}}, Net: NewSequential(8,
			NewDense(8, 5, HeInit, rng), NewLeakyReLU(0.01), NewDense(5, 3, HeInit, rng))},
		Branch{Ranges: [][2]int{{0, 4}, {8, 12}}, Net: NewSequential(8,
			NewDense(8, 5, HeInit, rng), NewLeakyReLU(0.01), NewDense(5, 3, HeInit, rng))},
	)
	in := make(Vec, 12)
	for i := range in {
		in[i] = rng.NormFloat64() * 0.4
	}
	target := Vec{0.1, -0.2, 0.3, 0, 0.2, -0.1}
	loss := func() float64 {
		l, _ := MSE(m.Forward(nil, in, 1), target)
		return l
	}
	backward := func() {
		_, g := MSE(m.Forward(nil, in, 1), target)
		m.Backward(nil, g, 1)
	}
	if worst := GradCheck(m.Params(), loss, backward, 1e-5, 0); worst > 1e-4 {
		t.Fatalf("MultiBranch gradient check failed: %v", worst)
	}
}

func TestMultiBranchInputGradientOverlapAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two identity-ish branches over the same range: input grads must sum.
	d1 := NewDense(2, 2, ZeroInit, rng)
	copy(d1.W.Value, Vec{1, 0, 0, 1})
	d2 := NewDense(2, 2, ZeroInit, rng)
	copy(d2.W.Value, Vec{1, 0, 0, 1})
	m := NewMultiBranch(2,
		Branch{Ranges: [][2]int{{0, 2}}, Net: d1},
		Branch{Ranges: [][2]int{{0, 2}}, Net: d2},
	)
	m.Forward(nil, Vec{1, 2}, 1)
	gin := m.Backward(nil, Vec{1, 1, 1, 1}, 1)
	if gin[0] != 2 || gin[1] != 2 {
		t.Fatalf("overlap grads = %v, want [2 2]", gin)
	}
}

// overlapNet is the per-resource shape: two branches that share the first
// four inputs and each own four more.
func overlapNet(rng *rand.Rand) *MultiBranch {
	branch := func() Layer {
		return NewSequential(8, NewDense(8, 5, HeInit, rng), NewLeakyReLU(0.01), NewDense(5, 3, HeInit, rng))
	}
	return NewMultiBranch(12,
		Branch{Ranges: [][2]int{{0, 4}, {4, 8}}, Net: branch()},
		Branch{Ranges: [][2]int{{0, 4}, {8, 12}}, Net: branch()},
	)
}

// A batched pass must reproduce bsz=1 passes row by row: forward rows bit for
// bit, input and parameter gradients (which the batched Dense kernels sum in
// a different order) to 1e-12, overlapping ranges included.
func TestMultiBranchBatchMatchesRows(t *testing.T) {
	const bsz = 5
	ref := overlapNet(rand.New(rand.NewSource(21)))
	dut := overlapNet(rand.New(rand.NewSource(21)))
	rng := rand.New(rand.NewSource(22))
	xs, gs := randVec(rng, bsz*12), randVec(rng, bsz*6)

	var wantOut, wantGin Vec
	for b := 0; b < bsz; b++ {
		wantOut = append(wantOut, ref.Forward(nil, xs[b*12:(b+1)*12], 1)...)
		wantGin = append(wantGin, ref.Backward(nil, gs[b*6:(b+1)*6], 1)...)
	}
	if d := maxAbsDiff(wantOut, dut.Forward(nil, xs, bsz)); d > 0 {
		t.Fatalf("batched forward rows diverge from bsz=1 by %g", d)
	}
	if d := maxAbsDiff(wantGin, dut.Backward(nil, gs, bsz)); d > kernelTol {
		t.Fatalf("batched input gradient diverges from row-at-a-time by %g", d)
	}
	compareGrads(t, ref, dut, "multibranch-batch")
}

func TestMultiBranchGradCheckBatched(t *testing.T) {
	const bsz = 3
	rng := rand.New(rand.NewSource(23))
	m := overlapNet(rng)
	xs, target := randVec(rng, bsz*12), randVec(rng, bsz*6)
	loss := func() float64 {
		l, _ := MSE(m.Forward(nil, xs, bsz), target)
		return l
	}
	backward := func() {
		_, g := MSE(m.Forward(nil, xs, bsz), target)
		m.Backward(nil, g, bsz)
	}
	if worst := GradCheck(m.Params(), loss, backward, 1e-5, 0); worst > 1e-4 {
		t.Fatalf("batched MultiBranch gradient check failed: %v", worst)
	}
}

// A gradient of the wrong length must be refused before any branch has
// accumulated into its parameters.
func TestMultiBranchBackwardRejectsBadGradUntouched(t *testing.T) {
	const bsz = 2
	rng := rand.New(rand.NewSource(24))
	m := overlapNet(rng)
	m.Forward(nil, randVec(rng, bsz*12), bsz)
	for _, n := range []int{bsz*6 - 1, bsz*6 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Backward accepted %d grads, want %d", n, bsz*6)
				}
			}()
			m.Backward(nil, randVec(rng, n), bsz)
		}()
		for _, p := range m.Params() {
			for _, g := range p.Grad {
				if g != 0 {
					t.Fatalf("%d grads: %s accumulated a gradient before the panic", n, p.Name)
				}
			}
		}
	}
}
