package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot(Vec{1, 2, 3}, Vec{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(Vec{}, Vec{}); got != 0 {
		t.Fatalf("Dot empty = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestAddScale(t *testing.T) {
	a := Vec{1, 2}
	b := Vec{3, 4}
	sum := Add(a, b)
	if sum[0] != 4 || sum[1] != 6 {
		t.Fatalf("Add = %v", sum)
	}
	Scale(sum, 0.5)
	if sum[0] != 2 || sum[1] != 3 {
		t.Fatalf("Scale = %v", sum)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax(Vec{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
	// Ties resolve to the first occurrence.
	if got := ArgMax(Vec{2, 2, 2}); got != 0 {
		t.Fatalf("ArgMax tie = %d, want 0", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make(Vec, len(raw))
		for i, x := range raw {
			// Bound inputs to keep exp finite but still exercise spread.
			v[i] = math.Mod(x, 50)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		p := make(Vec, len(v))
		SoftmaxInto(p, v)
		var sum float64
		for _, x := range p {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	v := Vec{1, 2, 3}
	shifted := Vec{101, 102, 103}
	a, b := make(Vec, 3), make(Vec, 3)
	SoftmaxInto(a, v)
	SoftmaxInto(b, shifted)
	for i := range a {
		if !almostEq(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestClipNorm(t *testing.T) {
	v := Vec{3, 4}
	n := ClipNorm(v, 1)
	if !almostEq(n, 5, 1e-12) {
		t.Fatalf("pre-clip norm = %v, want 5", n)
	}
	if !almostEq(L2Norm(v), 1, 1e-12) {
		t.Fatalf("post-clip norm = %v, want 1", L2Norm(v))
	}
	// Vectors under the cap are untouched.
	w := Vec{0.1, 0.1}
	ClipNorm(w, 10)
	if w[0] != 0.1 {
		t.Fatal("ClipNorm modified a vector under the cap")
	}
}

func TestMeanAndCopy(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean(Vec{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
	v := Vec{1, 2}
	c := Copy(v)
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Copy aliased")
	}
}

func TestInitWeightsSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := make(Vec, 1000)
	initWeights(w, 100, 10, HeInit, rng)
	var sum, sq float64
	for _, x := range w {
		sum += x
		sq += x * x
	}
	mean := sum / 1000
	std := math.Sqrt(sq/1000 - mean*mean)
	want := math.Sqrt(2.0 / 100)
	if math.Abs(std-want) > want/3 {
		t.Fatalf("He init std = %v, want ~%v", std, want)
	}

	initWeights(w, 100, 10, XavierInit, rng)
	bound := math.Sqrt(6.0 / 110)
	for _, x := range w {
		if x < -bound || x > bound {
			t.Fatalf("Xavier weight %v out of bound %v", x, bound)
		}
	}

	initWeights(w, 100, 10, ZeroInit, rng)
	for _, x := range w {
		if x != 0 {
			t.Fatal("ZeroInit left nonzero weight")
		}
	}
}
