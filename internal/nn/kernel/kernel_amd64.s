//go:build amd64 && !purego

#include "textflag.h"

// AVX2/FMA primitives for the avx2 kernel set.
//
// Register discipline: all routines are NOSPLIT leaf functions using ABI0
// frames; R14/R15 and X15 (the internal-ABI g and zero registers) are never
// touched so no restore dance is needed. Every routine ends in VZEROUPPER
// before RET to avoid AVX/SSE transition stalls in the surrounding Go code.
//
// Numerical discipline: vector accumulators are horizontally reduced BEFORE
// any scalar tail work — VEX-encoded scalar ops (VFMADD231SD etc.) zero bits
// 255:128 of the destination's YMM register, so a scalar op into a live
// vector accumulator would silently drop two lanes. Scalar tails mirror the
// vector code's association (same FMA chains) so an element's rounding does
// not depend on which loop produced it.

// DOT4_BODY is four simultaneous dot products s_k = sum_i w[k*stride+i]*x[i]
// as straight-line code shared by dot4 and matvec, which is what makes a
// matvec row bitwise a dot4 row. In: SI = w, R8 = stride in bytes, DX = x,
// CX = n. Out: the low lanes of X0-X3. Clobbers AX, DX, SI, R9-R11, Y0-Y9;
// preserves CX and R8.
//
// Each of the four rows keeps two 4-lane FMA accumulators (8 YMM total),
// folded pairwise, reduced horizontally, then a scalar FMA tail for n%4:
// element i lands in lane i mod 8 and the fold is
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
#define DOT4_BODY \
	LEAQ (SI)(R8*1), R9; \
	LEAQ (R9)(R8*1), R10; \
	LEAQ (R10)(R8*1), R11; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	MOVQ CX, AX; \
	SHRQ $3, AX; \
	JZ   dot4_tail4; \
dot4_loop8: \
	VMOVUPD (DX), Y8; \
	VMOVUPD 32(DX), Y9; \
	VFMADD231PD (SI), Y8, Y0; \
	VFMADD231PD 32(SI), Y9, Y4; \
	VFMADD231PD (R9), Y8, Y1; \
	VFMADD231PD 32(R9), Y9, Y5; \
	VFMADD231PD (R10), Y8, Y2; \
	VFMADD231PD 32(R10), Y9, Y6; \
	VFMADD231PD (R11), Y8, Y3; \
	VFMADD231PD 32(R11), Y9, Y7; \
	ADDQ $64, DX; \
	ADDQ $64, SI; \
	ADDQ $64, R9; \
	ADDQ $64, R10; \
	ADDQ $64, R11; \
	DECQ AX; \
	JNZ  dot4_loop8; \
dot4_tail4: \
	TESTQ $4, CX; \
	JZ    dot4_fold; \
	VMOVUPD (DX), Y8; \
	VFMADD231PD (SI), Y8, Y0; \
	VFMADD231PD (R9), Y8, Y1; \
	VFMADD231PD (R10), Y8, Y2; \
	VFMADD231PD (R11), Y8, Y3; \
	ADDQ $32, DX; \
	ADDQ $32, SI; \
	ADDQ $32, R9; \
	ADDQ $32, R10; \
	ADDQ $32, R11; \
dot4_fold: \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3; \
	VEXTRACTF128 $1, Y0, X8; \
	VADDPD  X8, X0, X0; \
	VSHUFPD $1, X0, X0, X8; \
	VADDSD  X8, X0, X0; \
	VEXTRACTF128 $1, Y1, X8; \
	VADDPD  X8, X1, X1; \
	VSHUFPD $1, X1, X1, X8; \
	VADDSD  X8, X1, X1; \
	VEXTRACTF128 $1, Y2, X8; \
	VADDPD  X8, X2, X2; \
	VSHUFPD $1, X2, X2, X8; \
	VADDSD  X8, X2, X2; \
	VEXTRACTF128 $1, Y3, X8; \
	VADDPD  X8, X3, X3; \
	VSHUFPD $1, X3, X3, X8; \
	VADDSD  X8, X3, X3; \
	MOVQ CX, AX; \
	ANDQ $3, AX; \
	JZ   dot4_done; \
dot4_tail1: \
	VMOVSD (DX), X8; \
	VFMADD231SD (SI), X8, X0; \
	VFMADD231SD (R9), X8, X1; \
	VFMADD231SD (R10), X8, X2; \
	VFMADD231SD (R11), X8, X3; \
	ADDQ $8, DX; \
	ADDQ $8, SI; \
	ADDQ $8, R9; \
	ADDQ $8, R10; \
	ADDQ $8, R11; \
	DECQ AX; \
	JNZ  dot4_tail1; \
dot4_done:

// DOT1_BODY is the single dot product shared by dot1 and matvec's remainder
// rows, with four 4-lane accumulators (16 elements in flight). In: SI = w,
// DX = x, CX = n. Out: the low lane of X0. Clobbers AX, DX, SI, Y0-Y3,
// Y8-Y11; preserves CX.
#define DOT1_BODY \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	MOVQ CX, AX; \
	SHRQ $4, AX; \
	JZ   dot1_tail8; \
dot1_loop16: \
	VMOVUPD (DX), Y8; \
	VMOVUPD 32(DX), Y9; \
	VMOVUPD 64(DX), Y10; \
	VMOVUPD 96(DX), Y11; \
	VFMADD231PD (SI), Y8, Y0; \
	VFMADD231PD 32(SI), Y9, Y1; \
	VFMADD231PD 64(SI), Y10, Y2; \
	VFMADD231PD 96(SI), Y11, Y3; \
	ADDQ $128, DX; \
	ADDQ $128, SI; \
	DECQ AX; \
	JNZ  dot1_loop16; \
dot1_tail8: \
	TESTQ $8, CX; \
	JZ    dot1_tail4; \
	VMOVUPD (DX), Y8; \
	VMOVUPD 32(DX), Y9; \
	VFMADD231PD (SI), Y8, Y0; \
	VFMADD231PD 32(SI), Y9, Y1; \
	ADDQ $64, DX; \
	ADDQ $64, SI; \
dot1_tail4: \
	TESTQ $4, CX; \
	JZ    dot1_fold; \
	VMOVUPD (DX), Y8; \
	VFMADD231PD (SI), Y8, Y2; \
	ADDQ $32, DX; \
	ADDQ $32, SI; \
dot1_fold: \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y3, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X8; \
	VADDPD  X8, X0, X0; \
	VSHUFPD $1, X0, X0, X8; \
	VADDSD  X8, X0, X0; \
	MOVQ CX, AX; \
	ANDQ $3, AX; \
	JZ   dot1_done; \
dot1_tail1: \
	VMOVSD (DX), X8; \
	VFMADD231SD (SI), X8, X0; \
	ADDQ $8, DX; \
	ADDQ $8, SI; \
	DECQ AX; \
	JNZ  dot1_tail1; \
dot1_done:

// func dot4(w *float64, stride int, x *float64, n int) (s0, s1, s2, s3 float64)
TEXT ·dot4(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), SI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	DOT4_BODY
	VMOVSD X0, s0+32(FP)
	VMOVSD X1, s1+40(FP)
	VMOVSD X2, s2+48(FP)
	VMOVSD X3, s3+56(FP)
	VZEROUPPER
	RET

// func dot1(w, x *float64, n int) float64
TEXT ·dot1(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ n+16(FP), CX
	DOT1_BODY
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func matvec(dst, w, x, b *float64, in, out int)
//
// One sample through a whole layer: dst[o] = dot(w[o*in:], x) + b[o]. Rows go
// four at a time through DOT4_BODY and the out%4 remainder through
// DOT1_BODY, the bias joined by one scalar add, so every output is bitwise
// what avx2DenseForward's Go loop over dot4 and dot1 stores at bsz = 1.
TEXT ·matvec(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R12
	MOVQ b+24(FP), BX
	MOVQ in+32(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	MOVQ out+40(FP), R13
	SHRQ $2, R13
	JZ   matvec_rows1

matvec_rows4:
	MOVQ R12, SI
	MOVQ x+16(FP), DX
	DOT4_BODY
	VADDSD (BX), X0, X0
	VADDSD 8(BX), X1, X1
	VADDSD 16(BX), X2, X2
	VADDSD 24(BX), X3, X3
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	LEAQ (R12)(R8*4), R12
	ADDQ $32, BX
	ADDQ $32, DI
	DECQ R13
	JNZ  matvec_rows4

matvec_rows1:
	MOVQ out+40(FP), R13
	ANDQ $3, R13
	JZ   matvec_done

matvec_row1:
	MOVQ R12, SI
	MOVQ x+16(FP), DX
	DOT1_BODY
	VADDSD (BX), X0, X0
	VMOVSD X0, (DI)
	ADDQ R8, R12
	ADDQ $8, BX
	ADDQ $8, DI
	DECQ R13
	JNZ  matvec_row1

matvec_done:
	VZEROUPPER
	RET

// func transpose4(wt, w *float64, in, out int)
//
// The 4x4-block body of Wᵀ: wt[i*out+o] = w[o*in+i] for i < in-in%4 and
// o < out-out%4 (both at least 4; the caller moves the edges). Four columns
// at a time, walking down the rows: the four row segments of a block are
// interleaved pairwise (VUNPCKLPD/VUNPCKHPD) and their 128-bit halves
// recombined (VPERM2F128), so each block is four loads and four stores, and
// the stores of one column group run along four rows of wt.
TEXT ·transpose4(SB), NOSPLIT, $0-32
	MOVQ wt+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ in+16(FP), R8
	MOVQ out+24(FP), R9
	MOVQ R8, R12
	SHRQ $2, R12
	SHLQ $3, R8
	MOVQ R9, CX
	SHRQ $2, CX
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R10
	LEAQ (R9)(R9*2), R11

transpose4_cols:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ CX, R13

transpose4_rows:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD (AX)(R8*2), Y2
	VMOVUPD (AX)(R10*1), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R9*1)
	VMOVUPD Y2, (BX)(R9*2)
	VMOVUPD Y3, (BX)(R11*1)
	LEAQ (AX)(R8*4), AX
	ADDQ $32, BX
	DECQ R13
	JNZ  transpose4_rows
	ADDQ $32, SI
	LEAQ (DI)(R9*4), DI
	DECQ R12
	JNZ  transpose4_cols
	VZEROUPPER
	RET

// func axpy8(dst, x *float64, xstride int, gp *float64, gstride int, n int)
//
// Merged 8-sample rank-1 update: dst[i] += sum_{k<8} g[k*gstride]*x[k*xstride+i].
// The eight strided coefficients are broadcast once into Y0-Y7; the loop
// streams dst with two independent FMA chains (even rows into the dst load,
// odd rows into a fresh product) merged by one add. The scalar tail keeps
// the identical two-chain association.
TEXT ·axpy8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ xstride+16(FP), R8
	SHLQ $3, R8
	MOVQ gp+24(FP), BX
	MOVQ gstride+32(FP), DX
	SHLQ $3, DX
	MOVQ n+40(FP), CX

	VBROADCASTSD (BX), Y0
	VBROADCASTSD (BX)(DX*1), Y1
	LEAQ (BX)(DX*2), AX
	VBROADCASTSD (AX), Y2
	VBROADCASTSD (AX)(DX*1), Y3
	LEAQ (AX)(DX*2), AX
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (AX)(DX*1), Y5
	LEAQ (AX)(DX*2), AX
	VBROADCASTSD (AX), Y6
	VBROADCASTSD (AX)(DX*1), Y7

	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), DX
	LEAQ (DX)(R8*1), R8

	XORQ BX, BX
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   axpy8_tail

axpy8_loop4:
	VMOVUPD (DI)(BX*1), Y8
	VMULPD  (R9)(BX*1), Y1, Y9
	VFMADD231PD (SI)(BX*1), Y0, Y8
	VFMADD231PD (R10)(BX*1), Y2, Y8
	VFMADD231PD (R11)(BX*1), Y3, Y9
	VFMADD231PD (R12)(BX*1), Y4, Y8
	VFMADD231PD (R13)(BX*1), Y5, Y9
	VFMADD231PD (DX)(BX*1), Y6, Y8
	VFMADD231PD (R8)(BX*1), Y7, Y9
	VADDPD  Y9, Y8, Y8
	VMOVUPD Y8, (DI)(BX*1)
	ADDQ $32, BX
	DECQ AX
	JNZ  axpy8_loop4

axpy8_tail:
	ANDQ $3, CX
	JZ   axpy8_done

axpy8_tail1:
	VMOVSD (DI)(BX*1), X8
	VMULSD (R9)(BX*1), X1, X9
	VFMADD231SD (SI)(BX*1), X0, X8
	VFMADD231SD (R10)(BX*1), X2, X8
	VFMADD231SD (R11)(BX*1), X3, X9
	VFMADD231SD (R12)(BX*1), X4, X8
	VFMADD231SD (R13)(BX*1), X5, X9
	VFMADD231SD (DX)(BX*1), X6, X8
	VFMADD231SD (R8)(BX*1), X7, X9
	VADDSD X9, X8, X8
	VMOVSD X8, (DI)(BX*1)
	ADDQ $8, BX
	DECQ CX
	JNZ  axpy8_tail1

axpy8_done:
	VZEROUPPER
	RET

// func axpy4(dst, x *float64, xstride int, gp *float64, gstride int, n int)
//
// 4-sample variant of axpy8, same two-chain association.
TEXT ·axpy4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ xstride+16(FP), R8
	SHLQ $3, R8
	MOVQ gp+24(FP), BX
	MOVQ gstride+32(FP), DX
	SHLQ $3, DX
	MOVQ n+40(FP), CX

	VBROADCASTSD (BX), Y0
	VBROADCASTSD (BX)(DX*1), Y1
	LEAQ (BX)(DX*2), AX
	VBROADCASTSD (AX), Y2
	VBROADCASTSD (AX)(DX*1), Y3

	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11

	XORQ BX, BX
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   axpy4_tail

axpy4_loop4:
	VMOVUPD (DI)(BX*1), Y8
	VMULPD  (R9)(BX*1), Y1, Y9
	VFMADD231PD (SI)(BX*1), Y0, Y8
	VFMADD231PD (R10)(BX*1), Y2, Y8
	VFMADD231PD (R11)(BX*1), Y3, Y9
	VADDPD  Y9, Y8, Y8
	VMOVUPD Y8, (DI)(BX*1)
	ADDQ $32, BX
	DECQ AX
	JNZ  axpy4_loop4

axpy4_tail:
	ANDQ $3, CX
	JZ   axpy4_done

axpy4_tail1:
	VMOVSD (DI)(BX*1), X8
	VMULSD (R9)(BX*1), X1, X9
	VFMADD231SD (SI)(BX*1), X0, X8
	VFMADD231SD (R10)(BX*1), X2, X8
	VFMADD231SD (R11)(BX*1), X3, X9
	VADDSD X9, X8, X8
	VMOVSD X8, (DI)(BX*1)
	ADDQ $8, BX
	DECQ CX
	JNZ  axpy4_tail1

axpy4_done:
	VZEROUPPER
	RET

// func axpy1(dst, x *float64, c float64, n int)
//
// Single rank-1 row update: dst[i] += g*x[i].
TEXT ·axpy1(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD c+16(FP), Y0
	MOVQ n+24(FP), CX

	XORQ BX, BX
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   axpy1_tail4

axpy1_loop8:
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD 32(DI)(BX*1), Y9
	VFMADD231PD (SI)(BX*1), Y0, Y8
	VFMADD231PD 32(SI)(BX*1), Y0, Y9
	VMOVUPD Y8, (DI)(BX*1)
	VMOVUPD Y9, 32(DI)(BX*1)
	ADDQ $64, BX
	DECQ AX
	JNZ  axpy1_loop8

axpy1_tail4:
	TESTQ $4, CX
	JZ    axpy1_tails
	VMOVUPD (DI)(BX*1), Y8
	VFMADD231PD (SI)(BX*1), Y0, Y8
	VMOVUPD Y8, (DI)(BX*1)
	ADDQ $32, BX

axpy1_tails:
	ANDQ $3, CX
	JZ   axpy1_done

axpy1_tail1:
	VMOVSD (DI)(BX*1), X8
	VFMADD231SD (SI)(BX*1), X0, X8
	VMOVSD X8, (DI)(BX*1)
	ADDQ $8, BX
	DECQ CX
	JNZ  axpy1_tail1

axpy1_done:
	VZEROUPPER
	RET

// func adamStep(val, grad, m, v *float64, n int, f, lr, beta1, beta2, a1, a2, invB1c, invB2c, eps float64)
//
// Fused Adam update, fully vectorized including VSQRTPD/VDIVPD:
//
//	g = grad[i]*f; grad[i] = 0
//	m[i] = beta1*m[i] + a1*g
//	v[i] = beta2*v[i] + a2*g*g
//	val[i] -= lr * (m[i]*invB1c) / (sqrt(v[i]*invB2c) + eps)
//
// Constants live in Y6-Y14, zero in Y5, working set Y0-Y4; the scalar tail
// repeats the same operation sequence in SD form.
TEXT ·adamStep(SB), NOSPLIT, $0-112
	MOVQ val+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R9
	MOVQ v+24(FP), R10
	MOVQ n+32(FP), CX
	VBROADCASTSD f+40(FP), Y14
	VBROADCASTSD lr+48(FP), Y6
	VBROADCASTSD beta1+56(FP), Y13
	VBROADCASTSD beta2+64(FP), Y11
	VBROADCASTSD a1+72(FP), Y12
	VBROADCASTSD a2+80(FP), Y10
	VBROADCASTSD invB1c+88(FP), Y9
	VBROADCASTSD invB2c+96(FP), Y8
	VBROADCASTSD eps+104(FP), Y7
	VXORPD Y5, Y5, Y5

	XORQ BX, BX
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   adam_tail

adam_loop4:
	VMOVUPD (SI)(BX*1), Y0
	VMULPD  Y14, Y0, Y0
	VMOVUPD Y5, (SI)(BX*1)
	VMOVUPD (R9)(BX*1), Y1
	VMULPD  Y13, Y1, Y1
	VFMADD231PD Y12, Y0, Y1
	VMOVUPD Y1, (R9)(BX*1)
	VMOVUPD (R10)(BX*1), Y2
	VMULPD  Y11, Y2, Y2
	VMULPD  Y0, Y0, Y3
	VFMADD231PD Y10, Y3, Y2
	VMOVUPD Y2, (R10)(BX*1)
	VMULPD  Y9, Y1, Y3
	VMULPD  Y8, Y2, Y4
	VSQRTPD Y4, Y4
	VADDPD  Y7, Y4, Y4
	VDIVPD  Y4, Y3, Y3
	VMOVUPD (DI)(BX*1), Y4
	VFNMADD231PD Y6, Y3, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ $32, BX
	DECQ AX
	JNZ  adam_loop4

adam_tail:
	ANDQ $3, CX
	JZ   adam_done

adam_tail1:
	VMOVSD (SI)(BX*1), X0
	VMULSD X14, X0, X0
	VMOVSD X5, (SI)(BX*1)
	VMOVSD (R9)(BX*1), X1
	VMULSD X13, X1, X1
	VFMADD231SD X12, X0, X1
	VMOVSD X1, (R9)(BX*1)
	VMOVSD (R10)(BX*1), X2
	VMULSD X11, X2, X2
	VMULSD X0, X0, X3
	VFMADD231SD X10, X3, X2
	VMOVSD X2, (R10)(BX*1)
	VMULSD X9, X1, X3
	VMULSD X8, X2, X4
	VSQRTSD X4, X4, X4
	VADDSD  X7, X4, X4
	VDIVSD  X4, X3, X3
	VMOVSD (DI)(BX*1), X4
	VFNMADD231SD X6, X3, X4
	VMOVSD X4, (DI)(BX*1)
	ADDQ $8, BX
	DECQ CX
	JNZ  adam_tail1

adam_done:
	VZEROUPPER
	RET

// func foldNorm(grad, shadow *float64, n int) float64
//
// The gradient fold in one pass: grad[i] += shadow[i], shadow[i] = 0, and the
// sum of the squares of what grad now holds, in nn.L2Norm's order — lane k of
// Y0 is its accumulator s_k over the elements i = k mod 4 of the 4-wide body,
// the n%4 tail joins s0, the result is ((s0+s1)+s2)+s3. The square is a
// multiply and the accumulation an add, as the Go loop compiles: an FMA here
// would round differently. With shadow nil only the sum is taken. The lanes
// are taken out of Y0 before the scalar tail (a VEX scalar op zeroes the rest
// of its destination). One of the two streams was last written by another
// worker and sits dirty in that core's cache; the prefetches ask for it a dozen
// lines ahead (running past the end is harmless, a prefetch does not fault).
TEXT ·foldNorm(SB), NOSPLIT, $0-32
	MOVQ grad+0(FP), DI
	MOVQ shadow+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y5, Y5, Y5
	XORQ BX, BX
	MOVQ CX, AX
	SHRQ $2, AX
	ANDQ $3, CX
	TESTQ SI, SI
	JZ   norm_body

	TESTQ AX, AX
	JZ   fold_lanes

fold_loop4:
	PREFETCHT0 768(DI)(BX*1)
	PREFETCHT0 768(SI)(BX*1)
	VMOVUPD (DI)(BX*1), Y1
	VADDPD  (SI)(BX*1), Y1, Y1
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y5, (SI)(BX*1)
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $32, BX
	DECQ AX
	JNZ  fold_loop4

fold_lanes:
	VEXTRACTF128 $1, Y0, X2
	VSHUFPD $1, X0, X0, X1
	VSHUFPD $1, X2, X2, X3
	TESTQ CX, CX
	JZ   fold_sum

fold_tail1:
	VMOVSD (DI)(BX*1), X4
	VADDSD (SI)(BX*1), X4, X4
	VMOVSD X4, (DI)(BX*1)
	VMOVSD X5, (SI)(BX*1)
	VMULSD X4, X4, X4
	VADDSD X4, X0, X0
	ADDQ $8, BX
	DECQ CX
	JNZ  fold_tail1
	JMP  fold_sum

norm_body:
	TESTQ AX, AX
	JZ   norm_lanes

norm_loop4:
	VMOVUPD (DI)(BX*1), Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $32, BX
	DECQ AX
	JNZ  norm_loop4

norm_lanes:
	VEXTRACTF128 $1, Y0, X2
	VSHUFPD $1, X0, X0, X1
	VSHUFPD $1, X2, X2, X3
	TESTQ CX, CX
	JZ   fold_sum

norm_tail1:
	VMOVSD (DI)(BX*1), X4
	VMULSD X4, X4, X4
	VADDSD X4, X0, X0
	ADDQ $8, BX
	DECQ CX
	JNZ  norm_tail1

fold_sum:
	VADDSD X1, X0, X0
	VADDSD X2, X0, X0
	VADDSD X3, X0, X0
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func backfillScan4(keys *uint64, walls *float64, n int, free, extra, guard uint64, now, shadow float64) int
//
// Set.BackfillScan4's test on four words a step, n > 0 a multiple of four:
// the first k passing it, or n. A limit's test is (limit-key)&guard == guard
// (VPSUBQ, VPAND, VPCMPEQQ); the walltime test is the IEEE add now+wall and
// an ordered <= against shadow (predicate LE_OQ, false on NaN as Go's <= is).
// The three masks combine as free AND (walltime OR extra), and VMOVMSKPD
// takes one bit a word.
TEXT ·backfillScan4(SB), NOSPLIT, $0-72
	MOVQ keys+0(FP), SI
	MOVQ walls+8(FP), DI
	MOVQ n+16(FP), CX
	VPBROADCASTQ free+24(FP), Y0
	VPBROADCASTQ extra+32(FP), Y1
	VPBROADCASTQ guard+40(FP), Y2
	VBROADCASTSD now+48(FP), Y3
	VBROADCASTSD shadow+56(FP), Y4
	XORQ AX, AX

scan_loop4:
	VMOVDQU (SI)(AX*8), Y5
	VPSUBQ  Y5, Y0, Y6
	VPSUBQ  Y5, Y1, Y7
	VPAND   Y2, Y6, Y6
	VPAND   Y2, Y7, Y7
	VPCMPEQQ Y2, Y6, Y6
	VPCMPEQQ Y2, Y7, Y7
	VADDPD  (DI)(AX*8), Y3, Y8
	VCMPPD  $0x12, Y4, Y8, Y8
	VORPD   Y7, Y8, Y8
	VANDPD  Y6, Y8, Y8
	VMOVMSKPD Y8, BX
	TESTL BX, BX
	JNZ  scan_hit
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  scan_loop4
	MOVQ CX, ret+64(FP)
	VZEROUPPER
	RET

scan_hit:
	BSFL BX, BX
	ADDQ BX, AX
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
