package nn

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector. It is the currency of this package: layer
// inputs, outputs, and gradients are all Vecs.
type Vec = []float64

// Copy returns a fresh copy of v.
func Copy(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func Fill(v Vec, x float64) {
	for i := range v {
		v[i] = x
	}
}

// Ensure returns a slice of length n, reusing buf's storage when it has the
// capacity and allocating otherwise. Contents are unspecified; callers that
// need zeros must Fill. It is the growth primitive behind every scratch
// buffer in this package: after warm-up, Ensure never allocates.
func Ensure(buf Vec, n int) Vec {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make(Vec, n)
}

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("nn: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Add returns a+b as a new vector.
func Add(a, b Vec) Vec {
	if len(a) != len(b) {
		panic(fmt.Sprintf("nn: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AddTo accumulates src into dst in place.
func AddTo(dst, src Vec) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range src {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of v by s in place.
func Scale(v Vec, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// ArgMax returns the index of the largest element, or -1 for an empty vector.
func ArgMax(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Mean returns the arithmetic mean of v (0 for an empty vector).
func Mean(v Vec) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// SoftmaxInto writes the stable softmax of v into dst (same length, may
// alias v) without allocating.
func SoftmaxInto(dst, v Vec) {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("nn: SoftmaxInto length mismatch %d vs %d", len(dst), len(v)))
	}
	if len(v) == 0 {
		return
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// L2Norm returns the Euclidean norm of v. Four parallel accumulators hide
// the floating-point add latency on the long gradient vectors the optimizer
// clips every step. Each square is rounded before its add, as FoldNorm's are.
func L2Norm(v Vec) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += float64(v[i] * v[i])
		s1 += float64(v[i+1] * v[i+1])
		s2 += float64(v[i+2] * v[i+2])
		s3 += float64(v[i+3] * v[i+3])
	}
	for ; i < len(v); i++ {
		s0 += float64(v[i] * v[i])
	}
	return math.Sqrt(s0 + s1 + s2 + s3)
}

// ClipNorm rescales v in place so its L2 norm does not exceed max.
// It returns the norm before clipping.
func ClipNorm(v Vec, max float64) float64 {
	n := L2Norm(v)
	if n > max && n > 0 {
		Scale(v, max/n)
	}
	return n
}
