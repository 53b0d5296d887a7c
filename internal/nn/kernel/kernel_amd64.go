//go:build amd64 && !purego

package kernel

import "strings"

// The avx2 set runs the loop nests of kernel.go over the AVX2/FMA primitives of
// kernel_amd64.s (avx2Prims) and adds its own one-sample forward (matvec), Adam
// step, packed forward, 512-bit forms and BackfillScan4 (package doc).

//go:noescape
func dot4(w *float64, stride int, x *float64, n int) (s0, s1, s2, s3 float64)

//go:noescape
func dot1(w, x *float64, n int) float64

//go:noescape
func matvec(dst, w, x, b *float64, in, out int)

//go:noescape
func transpose4(wt, w *float64, in, out int)

//go:noescape
func axpy8(dst, x *float64, xstride int, gp *float64, gstride int, n int)

//go:noescape
func axpy4(dst, x *float64, xstride int, gp *float64, gstride int, n int)

//go:noescape
func axpy1(dst, x *float64, c float64, n int)

//go:noescape
func foldNorm(grad, shadow *float64, n int) float64

//go:noescape
func adamStep(val, grad, m, v *float64, n int, f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps float64)

//go:noescape
func backfillScan4(keys *uint64, walls *float64, n int, free, extra, guard uint64, now, shadow float64) int

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// probeCPU reports whether the CPU and OS support the avx2 set — AVX2 and
// FMA, plus OS-managed YMM state (OSXSAVE and XCR0 bits 1-2) — and whether
// they also support its 512-bit forms (wide_amd64.s): AVX512F, DQ and VL, plus
// opmask and ZMM state (XCR0 bits 5-7). feats names what was found, for the
// startup log.
func probeCPU() (avx2, wide bool, feats []string) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false, nil
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit != 0 {
		feats = append(feats, "fma")
	}
	if ecx1&avxBit != 0 {
		feats = append(feats, "avx")
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit != 0 {
		feats = append(feats, "avx2")
	}
	avx512 := true
	for _, f := range []struct {
		bit  uint32
		name string
	}{{1 << 16, "avx512f"}, {1 << 17, "avx512dq"}, {1 << 31, "avx512vl"}} {
		if ebx7&f.bit != 0 {
			feats = append(feats, f.name)
		} else {
			avx512 = false
		}
	}
	if ecx1&osxsaveBit == 0 {
		return false, false, feats
	}
	xcr0, _ := xgetbv0()
	const (
		ymmState = 0x06 // XMM (bit 1) + YMM (bit 2) state enabled
		zmmState = 0xe0 // opmask (bit 5) + ZMM0-15 high halves (6) + ZMM16-31 (7)
	)
	if xcr0&ymmState != ymmState {
		return false, false, feats
	}
	feats = append(feats, "osxsave")
	if xcr0&zmmState == zmmState {
		feats = append(feats, "zmm")
	} else {
		avx512 = false
	}
	avx2 = ecx1&fmaBit != 0 && ecx1&avxBit != 0 && ebx7&avx2Bit != 0
	return avx2, avx2 && avx512, feats
}

// avx2Set, wideForms and archFeatures are package-level variable
// initializers, and so is kernel.go's active, which reads avx2Set through
// nativeSet: Go initializes a variable after those it refers to, so active
// always sees the probe's result.
//
// The 512-bit forms are chosen here, once, inside the set: they are the avx2
// set's arithmetic from more registers (package doc, numerical contract), so
// there is no third set to name or key a golden file by.
var avx2Set, wideForms, archFeatures = func() (*Set, bool, string) {
	ok, wide, feats := probeCPU()
	if !ok {
		return nil, false, strings.Join(feats, " ")
	}
	s := &Set{
		Name:          "avx2",
		Transpose:     avx2Transpose,
		AdamStep:      avx2AdamStep,
		FoldNorm:      avx2FoldNorm,
		Pack:          avx2Pack,
		BackfillScan4: avx2BackfillScan4,
	}
	forms := "forms=narrow"
	if wide {
		forms = "forms=wide"
	}
	s.useForms(wide)
	return s, wide, strings.Join(append(feats, forms), " ")
}()

// useForms points the three batched matmul kernels, the one-sample forward
// and the packed forward at their 512-bit forms (wide_amd64.go,
// packed_amd64.go) or their 256-bit ones.
func (s *Set) useForms(wide bool) {
	s.DenseForward, s.InputGrad, s.AccumGrads = avx2DenseForward, avx2Prims.inputGrad, avx2Prims.accumGrads
	s.PackedForward = avx2PackedForward
	if wide {
		s.DenseForward, s.InputGrad, s.AccumGrads = wideDenseForward, wideInputGrad, wideAccumGrads
		s.PackedForward = widePackedForward
	}
}

// SetWide puts the avx2 set on its 256-bit forms (false) or back on the
// 512-bit ones the probe chose (true). It exists for the tests and benchmarks
// that hold one against the other, in this package and in dfp; nothing else
// may call it, and never while a kernel runs. On a host without the 512-bit
// forms it does nothing.
func SetWide(on bool) {
	if wideForms {
		avx2Set.useForms(on)
	}
}

func nativeSet() *Set     { return avx2Set }
func cpuFeatures() string { return archFeatures }

// avx2Prims binds the assembly primitives to the shared nests. Each wrapper
// checks the farthest element its routine reads, which the assembly does not.
var avx2Prims = &prims{
	dot4: func(w []float64, stride int, x []float64) (s0, s1, s2, s3 float64) {
		_ = w[3*stride+len(x)-1]
		return dot4(&w[0], stride, &x[0], len(x))
	},
	dot1: func(w, x []float64) float64 {
		_ = w[len(x)-1]
		return dot1(&w[0], &x[0], len(x))
	},
	axpy8: func(dst, x []float64, xstride int, g []float64, gstride int) {
		_, _ = x[7*xstride+len(dst)-1], g[7*gstride]
		axpy8(&dst[0], &x[0], xstride, &g[0], gstride, len(dst))
	},
	axpy4: func(dst, x []float64, xstride int, g []float64, gstride int) {
		_, _ = x[3*xstride+len(dst)-1], g[3*gstride]
		axpy4(&dst[0], &x[0], xstride, &g[0], gstride, len(dst))
	},
	axpy1: func(dst, x []float64, c float64) {
		_ = x[len(dst)-1]
		axpy1(&dst[0], &x[0], c, len(dst))
	},
}

// avx2DenseForward is the shared tiled nest, except that a single sample has
// no tile to share and is one matvec call: the same dot4 and dot1 bodies over
// the same rows, looped in assembly.
func avx2DenseForward(dst, x, w, b []float64, in, out, bsz int) {
	if bsz == 1 {
		_, _, _, _ = dst[out-1], x[in-1], w[out*in-1], b[out-1]
		matvec(&dst[0], &w[0], &x[0], &b[0], in, out)
		return
	}
	avx2Prims.denseForward(dst, x, w, b, in, out, bsz)
}

// avx2Transpose moves the in-in%4 by out-out%4 body in 4x4 register blocks
// (transpose4) and the in%4 columns and out%4 rows one element at a time.
func avx2Transpose(wt, w []float64, in, out int) {
	in4, out4 := in&^3, out&^3
	if in4 > 0 && out4 > 0 {
		_, _ = wt[in*out-1], w[in*out-1]
		transpose4(&wt[0], &w[0], in, out)
	}
	for o := 0; o < out; o++ {
		row := w[o*in : (o+1)*in]
		i := 0
		if o < out4 {
			i = in4
		}
		for ; i < in; i++ {
			wt[i*out+o] = row[i]
		}
	}
}

// avx2AdamStep runs the fused update fully vectorized, including the
// square root and divide (VSQRTPD/VDIVPD).
func avx2AdamStep(val, grad, m, v []float64, f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps float64) {
	if len(val) == 0 {
		return
	}
	adamStep(&val[0], &grad[0], &m[0], &v[0], len(val), f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps)
}

// avx2FoldNorm is goFoldNorm in four lanes: one add, two stores, a multiply
// and an add per vector, never an FMA — Σ g² must be nn.L2Norm's own bits,
// and the Go compiler does not contract a*b+c on amd64.
func avx2FoldNorm(grad, shadow []float64) float64 {
	if len(grad) == 0 {
		return 0
	}
	var sp *float64
	if shadow != nil {
		sp = &shadow[:len(grad)][0]
	}
	return foldNorm(&grad[0], sp, len(grad))
}

// avx2BackfillScan4 is backfillScan4 over the whole of keys.
func avx2BackfillScan4(keys []uint64, walls []float64, free, extra, guard uint64, now, shadow float64) int {
	if len(keys)%4 != 0 {
		panic("kernel: BackfillScan4 over a length that is not a multiple of four")
	}
	if len(keys) == 0 {
		return 0
	}
	return backfillScan4(&keys[0], &walls[:len(keys)][0], len(keys), free, extra, guard, now, shadow)
}
