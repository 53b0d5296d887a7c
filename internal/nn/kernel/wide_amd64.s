//go:build amd64 && !purego

#include "textflag.h"

// 512-bit forms of the avx2 set's three batched kernels and of its one-sample
// forward. They are the same arithmetic as kernel_amd64.s — that is why the
// set keeps its name: one ZMM accumulator is DOT4_BODY's two YMM accumulators
// side by side (element i in lane i mod 8), folded by the same tree, and the
// axpy chains are element-wise — so every output is bitwise what the 256-bit
// forms store. What changes is where the operands come from: 32 registers
// hold a whole 4x4 tile of dot products (8 loads per 16 FMAs, against 10 per
// 8), two weight-gradient rows' chains and their sixteen coefficients over
// one load of the eight sample rows, or eight rows' chains over one load of
// the sample (9 loads per 8 FMAs of eight lanes, against 10 per 8 of four).
//
// Register discipline as in kernel_amd64.s: NOSPLIT leaves, ABI0 frames,
// R14/R15/X15 untouched, VZEROUPPER before RET. Some argument slots are
// reused as loop variables.

// func tile4x4(dst, a, b, bias *float64, n, na4, nb4, sa, sb int)
//
// Sixteen dot products at a time: for every block of four a rows and every
// block of four b rows (rows of both are n long and contiguous),
//
//	dst[(4i+r)*sa + (4j+s)*sb] = dot(a[4i+r], b[4j+s]) (+ bias[4i+r])
//
// each one DOT4_BODY's chain to the bit: one 8-lane FMA accumulator, the
// n%8 >= 4 half-step a merge-masked FMA on lanes 0-3 (lanes 4-7 keep what
// they hold, as the untouched second YMM accumulator does), the fold
// (l0+l4)+(l2+l6) + (l1+l5)+(l3+l7), scalar FMAs for n%4 after the fold, the
// bias last. The a operand is the FMA's memory-side factor in DOT4_BODY (w
// for the forward, grad for the input gradient) and stays the third source
// here. bias may be nil: no add at all, not an add of zero, which would
// turn a -0 sum into +0.
//
// SI/R9 walk a's rows 0-2/3, DX/R10 b's; after a tile both have advanced by
// exactly one row (n elements), which is how the next block is found.
TEXT ·tile4x4(SB), NOSPLIT, $0-72
	MOVQ a+8(FP), SI
	MOVQ bias+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	MOVQ sa+56(FP), R11
	SHLQ $3, R11
	MOVQ sb+64(FP), R12
	SHLQ $3, R12
	MOVQ $0x0F, AX
	KMOVW AX, K1

tile_arows:
	MOVQ dst+0(FP), DI
	MOVQ b+16(FP), DX
	MOVQ nb4+48(FP), R13

tile_tile:
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	LEAQ (DX)(R8*2), R10
	ADDQ R8, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   tile_half

tile_loop8:
	VMOVUPD (SI), Z16
	VMOVUPD (SI)(R8*1), Z17
	VMOVUPD (SI)(R8*2), Z18
	VMOVUPD (R9), Z19
	VMOVUPD (DX), Z20
	VMOVUPD (DX)(R8*1), Z21
	VMOVUPD (DX)(R8*2), Z22
	VMOVUPD (R10), Z23
	VFMADD231PD Z16, Z20, Z0
	VFMADD231PD Z16, Z21, Z1
	VFMADD231PD Z16, Z22, Z2
	VFMADD231PD Z16, Z23, Z3
	VFMADD231PD Z17, Z20, Z4
	VFMADD231PD Z17, Z21, Z5
	VFMADD231PD Z17, Z22, Z6
	VFMADD231PD Z17, Z23, Z7
	VFMADD231PD Z18, Z20, Z8
	VFMADD231PD Z18, Z21, Z9
	VFMADD231PD Z18, Z22, Z10
	VFMADD231PD Z18, Z23, Z11
	VFMADD231PD Z19, Z20, Z12
	VFMADD231PD Z19, Z21, Z13
	VFMADD231PD Z19, Z22, Z14
	VFMADD231PD Z19, Z23, Z15
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, DX
	ADDQ $64, R10
	DECQ AX
	JNZ  tile_loop8

tile_half:
	TESTQ $4, CX
	JZ    tile_fold
	VMOVUPD (SI), Y16
	VMOVUPD (SI)(R8*1), Y17
	VMOVUPD (SI)(R8*2), Y18
	VMOVUPD (R9), Y19
	VMOVUPD (DX), Y20
	VMOVUPD (DX)(R8*1), Y21
	VMOVUPD (DX)(R8*2), Y22
	VMOVUPD (R10), Y23
	VFMADD231PD Z16, Z20, K1, Z0
	VFMADD231PD Z16, Z21, K1, Z1
	VFMADD231PD Z16, Z22, K1, Z2
	VFMADD231PD Z16, Z23, K1, Z3
	VFMADD231PD Z17, Z20, K1, Z4
	VFMADD231PD Z17, Z21, K1, Z5
	VFMADD231PD Z17, Z22, K1, Z6
	VFMADD231PD Z17, Z23, K1, Z7
	VFMADD231PD Z18, Z20, K1, Z8
	VFMADD231PD Z18, Z21, K1, Z9
	VFMADD231PD Z18, Z22, K1, Z10
	VFMADD231PD Z18, Z23, K1, Z11
	VFMADD231PD Z19, Z20, K1, Z12
	VFMADD231PD Z19, Z21, K1, Z13
	VFMADD231PD Z19, Z22, K1, Z14
	VFMADD231PD Z19, Z23, K1, Z15
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, DX
	ADDQ $32, R10

tile_fold:
	VEXTRACTF64X4 $1, Z0, Y16
	VEXTRACTF64X4 $1, Z1, Y17
	VEXTRACTF64X4 $1, Z2, Y18
	VEXTRACTF64X4 $1, Z3, Y19
	VADDPD Y16, Y0, Y0
	VADDPD Y17, Y1, Y1
	VADDPD Y18, Y2, Y2
	VADDPD Y19, Y3, Y3
	VEXTRACTF64X2 $1, Y0, X16
	VEXTRACTF64X2 $1, Y1, X17
	VEXTRACTF64X2 $1, Y2, X18
	VEXTRACTF64X2 $1, Y3, X19
	VADDPD X16, X0, X0
	VADDPD X17, X1, X1
	VADDPD X18, X2, X2
	VADDPD X19, X3, X3
	VSHUFPD $1, X0, X0, X16
	VSHUFPD $1, X1, X1, X17
	VSHUFPD $1, X2, X2, X18
	VSHUFPD $1, X3, X3, X19
	VADDSD X16, X0, X0
	VADDSD X17, X1, X1
	VADDSD X18, X2, X2
	VADDSD X19, X3, X3
	VEXTRACTF64X4 $1, Z4, Y16
	VEXTRACTF64X4 $1, Z5, Y17
	VEXTRACTF64X4 $1, Z6, Y18
	VEXTRACTF64X4 $1, Z7, Y19
	VADDPD Y16, Y4, Y4
	VADDPD Y17, Y5, Y5
	VADDPD Y18, Y6, Y6
	VADDPD Y19, Y7, Y7
	VEXTRACTF64X2 $1, Y4, X16
	VEXTRACTF64X2 $1, Y5, X17
	VEXTRACTF64X2 $1, Y6, X18
	VEXTRACTF64X2 $1, Y7, X19
	VADDPD X16, X4, X4
	VADDPD X17, X5, X5
	VADDPD X18, X6, X6
	VADDPD X19, X7, X7
	VSHUFPD $1, X4, X4, X16
	VSHUFPD $1, X5, X5, X17
	VSHUFPD $1, X6, X6, X18
	VSHUFPD $1, X7, X7, X19
	VADDSD X16, X4, X4
	VADDSD X17, X5, X5
	VADDSD X18, X6, X6
	VADDSD X19, X7, X7
	VEXTRACTF64X4 $1, Z8, Y16
	VEXTRACTF64X4 $1, Z9, Y17
	VEXTRACTF64X4 $1, Z10, Y18
	VEXTRACTF64X4 $1, Z11, Y19
	VADDPD Y16, Y8, Y8
	VADDPD Y17, Y9, Y9
	VADDPD Y18, Y10, Y10
	VADDPD Y19, Y11, Y11
	VEXTRACTF64X2 $1, Y8, X16
	VEXTRACTF64X2 $1, Y9, X17
	VEXTRACTF64X2 $1, Y10, X18
	VEXTRACTF64X2 $1, Y11, X19
	VADDPD X16, X8, X8
	VADDPD X17, X9, X9
	VADDPD X18, X10, X10
	VADDPD X19, X11, X11
	VSHUFPD $1, X8, X8, X16
	VSHUFPD $1, X9, X9, X17
	VSHUFPD $1, X10, X10, X18
	VSHUFPD $1, X11, X11, X19
	VADDSD X16, X8, X8
	VADDSD X17, X9, X9
	VADDSD X18, X10, X10
	VADDSD X19, X11, X11
	VEXTRACTF64X4 $1, Z12, Y16
	VEXTRACTF64X4 $1, Z13, Y17
	VEXTRACTF64X4 $1, Z14, Y18
	VEXTRACTF64X4 $1, Z15, Y19
	VADDPD Y16, Y12, Y12
	VADDPD Y17, Y13, Y13
	VADDPD Y18, Y14, Y14
	VADDPD Y19, Y15, Y15
	VEXTRACTF64X2 $1, Y12, X16
	VEXTRACTF64X2 $1, Y13, X17
	VEXTRACTF64X2 $1, Y14, X18
	VEXTRACTF64X2 $1, Y15, X19
	VADDPD X16, X12, X12
	VADDPD X17, X13, X13
	VADDPD X18, X14, X14
	VADDPD X19, X15, X15
	VSHUFPD $1, X12, X12, X16
	VSHUFPD $1, X13, X13, X17
	VSHUFPD $1, X14, X14, X18
	VSHUFPD $1, X15, X15, X19
	VADDSD X16, X12, X12
	VADDSD X17, X13, X13
	VADDSD X18, X14, X14
	VADDSD X19, X15, X15
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   tile_bias

tile_tail1:
	VMOVSD (SI), X16
	VMOVSD (SI)(R8*1), X17
	VMOVSD (SI)(R8*2), X18
	VMOVSD (R9), X19
	VMOVSD (DX), X20
	VMOVSD (DX)(R8*1), X21
	VMOVSD (DX)(R8*2), X22
	VMOVSD (R10), X23
	VFMADD231SD X16, X20, X0
	VFMADD231SD X16, X21, X1
	VFMADD231SD X16, X22, X2
	VFMADD231SD X16, X23, X3
	VFMADD231SD X17, X20, X4
	VFMADD231SD X17, X21, X5
	VFMADD231SD X17, X22, X6
	VFMADD231SD X17, X23, X7
	VFMADD231SD X18, X20, X8
	VFMADD231SD X18, X21, X9
	VFMADD231SD X18, X22, X10
	VFMADD231SD X18, X23, X11
	VFMADD231SD X19, X20, X12
	VFMADD231SD X19, X21, X13
	VFMADD231SD X19, X22, X14
	VFMADD231SD X19, X23, X15
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ $8, DX
	ADDQ $8, R10
	DECQ AX
	JNZ  tile_tail1

tile_bias:
	TESTQ BX, BX
	JZ    tile_store
	VADDSD (BX), X0, X0
	VADDSD (BX), X1, X1
	VADDSD (BX), X2, X2
	VADDSD (BX), X3, X3
	VADDSD 8(BX), X4, X4
	VADDSD 8(BX), X5, X5
	VADDSD 8(BX), X6, X6
	VADDSD 8(BX), X7, X7
	VADDSD 16(BX), X8, X8
	VADDSD 16(BX), X9, X9
	VADDSD 16(BX), X10, X10
	VADDSD 16(BX), X11, X11
	VADDSD 24(BX), X12, X12
	VADDSD 24(BX), X13, X13
	VADDSD 24(BX), X14, X14
	VADDSD 24(BX), X15, X15

tile_store:
	MOVQ DI, AX
	LEAQ (R12)(R12*2), R9
	VMOVSD X0, (AX)
	VMOVSD X1, (AX)(R12*1)
	VMOVSD X2, (AX)(R12*2)
	VMOVSD X3, (AX)(R9*1)
	ADDQ R11, AX
	VMOVSD X4, (AX)
	VMOVSD X5, (AX)(R12*1)
	VMOVSD X6, (AX)(R12*2)
	VMOVSD X7, (AX)(R9*1)
	ADDQ R11, AX
	VMOVSD X8, (AX)
	VMOVSD X9, (AX)(R12*1)
	VMOVSD X10, (AX)(R12*2)
	VMOVSD X11, (AX)(R9*1)
	ADDQ R11, AX
	VMOVSD X12, (AX)
	VMOVSD X13, (AX)(R12*1)
	VMOVSD X14, (AX)(R12*2)
	VMOVSD X15, (AX)(R9*1)

	// Next block of b rows against the same a rows.
	SUBQ R8, SI
	LEAQ (DX)(R8*2), DX
	ADDQ R8, DX
	LEAQ (DI)(R12*4), DI
	DECQ R13
	JNZ  tile_tile

	// Next block of a rows.
	LEAQ (SI)(R8*4), SI
	MOVQ dst+0(FP), DI
	LEAQ (DI)(R11*4), DI
	MOVQ DI, dst+0(FP)
	TESTQ BX, BX
	JZ    tile_nobias
	ADDQ  $32, BX

tile_nobias:
	DECQ na4+40(FP)
	JNZ  tile_arows
	VZEROUPPER
	RET

// func accum8x2(gw, x, grad *float64, in, out int) (left int)
//
// One block of eight samples of the weight-gradient accumulation, two gw rows
// per pass: x is eight rows of in, grad eight rows of out, and for every
// column o of grad whose eight coefficients are not all zero
//
//	gw[o*in+i] += sum_(k<8) grad[k*out+o] * x[k*in+i]
//
// in axpy8's association — g1*x1 opens the odd chain by a multiply, the even
// chain starts from the gw load, FMAs in row order, one add joins them. The
// chains are element-wise, so eight lanes at a time, or a masked in%8
// remainder, store the bits four lanes and a scalar tail do. Rows are taken
// in pairs in index order, skipped rows (every coefficient +-0: the integer
// test is the float one, a NaN is not zero) not counting, so the eight x
// loads of a pass feed both rows' chains; a row left without a partner is
// not touched and its index is returned for axpy8, -1 when there is none.
//
// AX is the column the scan has reached; Z0-Z7 and Z8-Z15 hold the pair's
// broadcast coefficients.
TEXT ·accum8x2(SB), NOSPLIT, $0-48
	MOVQ in+24(FP), R8
	SHLQ $3, R8
	MOVQ out+32(FP), DX
	SHLQ $3, DX
	XORQ AX, AX

accum_first:
	CMPQ AX, out+32(FP)
	JGE  accum_none
	MOVQ grad+16(FP), R12
	LEAQ (R12)(AX*8), R12
	LEAQ (R12)(DX*2), CX
	ADDQ DX, CX
	LEAQ (CX)(DX*2), BX
	ADDQ DX, BX
	MOVQ (R12), R13
	ORQ  (R12)(DX*1), R13
	ORQ  (R12)(DX*2), R13
	ORQ  (CX), R13
	ORQ  (CX)(DX*1), R13
	ORQ  (CX)(DX*2), R13
	ORQ  (BX), R13
	ORQ  (BX)(DX*1), R13
	SHLQ $1, R13
	LEAQ 1(AX), AX
	JZ   accum_first
	VBROADCASTSD (R12), Z0
	VBROADCASTSD (R12)(DX*1), Z1
	VBROADCASTSD (R12)(DX*2), Z2
	VBROADCASTSD (CX), Z3
	VBROADCASTSD (CX)(DX*1), Z4
	VBROADCASTSD (CX)(DX*2), Z5
	VBROADCASTSD (BX), Z6
	VBROADCASTSD (BX)(DX*1), Z7
	LEAQ -1(AX), DI
	MOVQ DI, left+40(FP)
	IMULQ R8, DI
	ADDQ gw+0(FP), DI

accum_second:
	CMPQ AX, out+32(FP)
	JGE  accum_done
	MOVQ grad+16(FP), R12
	LEAQ (R12)(AX*8), R12
	LEAQ (R12)(DX*2), CX
	ADDQ DX, CX
	LEAQ (CX)(DX*2), BX
	ADDQ DX, BX
	MOVQ (R12), R13
	ORQ  (R12)(DX*1), R13
	ORQ  (R12)(DX*2), R13
	ORQ  (CX), R13
	ORQ  (CX)(DX*1), R13
	ORQ  (CX)(DX*2), R13
	ORQ  (BX), R13
	ORQ  (BX)(DX*1), R13
	SHLQ $1, R13
	LEAQ 1(AX), AX
	JZ   accum_second
	VBROADCASTSD (R12), Z8
	VBROADCASTSD (R12)(DX*1), Z9
	VBROADCASTSD (R12)(DX*2), Z10
	VBROADCASTSD (CX), Z11
	VBROADCASTSD (CX)(DX*1), Z12
	VBROADCASTSD (CX)(DX*2), Z13
	VBROADCASTSD (BX), Z14
	VBROADCASTSD (BX)(DX*1), Z15
	LEAQ -1(AX), R11
	IMULQ R8, R11
	ADDQ gw+0(FP), R11

	MOVQ x+8(FP), SI
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	LEAQ (R9)(R8*2), R10
	ADDQ R8, R10
	XORQ BX, BX
	MOVQ in+24(FP), CX
	SHRQ $3, CX
	JZ   accum_tail

accum_loop8:
	VMOVUPD (SI), Z16
	VMOVUPD (SI)(R8*1), Z17
	VMOVUPD (SI)(R8*2), Z18
	VMOVUPD (R9), Z19
	VMOVUPD (R9)(R8*1), Z20
	VMOVUPD (R9)(R8*2), Z21
	VMOVUPD (R10), Z22
	VMOVUPD (R10)(R8*1), Z23
	VMOVUPD (DI)(BX*1), Z24
	VMULPD  Z17, Z1, Z25
	VFMADD231PD Z16, Z0, Z24
	VFMADD231PD Z18, Z2, Z24
	VFMADD231PD Z19, Z3, Z25
	VFMADD231PD Z20, Z4, Z24
	VFMADD231PD Z21, Z5, Z25
	VFMADD231PD Z22, Z6, Z24
	VFMADD231PD Z23, Z7, Z25
	VADDPD  Z25, Z24, Z24
	VMOVUPD Z24, (DI)(BX*1)
	VMOVUPD (R11)(BX*1), Z26
	VMULPD  Z17, Z9, Z27
	VFMADD231PD Z16, Z8, Z26
	VFMADD231PD Z18, Z10, Z26
	VFMADD231PD Z19, Z11, Z27
	VFMADD231PD Z20, Z12, Z26
	VFMADD231PD Z21, Z13, Z27
	VFMADD231PD Z22, Z14, Z26
	VFMADD231PD Z23, Z15, Z27
	VADDPD  Z27, Z26, Z26
	VMOVUPD Z26, (R11)(BX*1)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, BX
	DECQ CX
	JNZ  accum_loop8

accum_tail:
	MOVQ in+24(FP), CX
	ANDQ $7, CX
	JZ   accum_first
	MOVQ $1, R13
	SHLQ CX, R13
	DECQ R13
	KMOVW R13, K1
	VMOVUPD.Z (SI), K1, Z16
	VMOVUPD.Z (SI)(R8*1), K1, Z17
	VMOVUPD.Z (SI)(R8*2), K1, Z18
	VMOVUPD.Z (R9), K1, Z19
	VMOVUPD.Z (R9)(R8*1), K1, Z20
	VMOVUPD.Z (R9)(R8*2), K1, Z21
	VMOVUPD.Z (R10), K1, Z22
	VMOVUPD.Z (R10)(R8*1), K1, Z23
	VMOVUPD.Z (DI)(BX*1), K1, Z24
	VMULPD  Z17, Z1, Z25
	VFMADD231PD Z16, Z0, Z24
	VFMADD231PD Z18, Z2, Z24
	VFMADD231PD Z19, Z3, Z25
	VFMADD231PD Z20, Z4, Z24
	VFMADD231PD Z21, Z5, Z25
	VFMADD231PD Z22, Z6, Z24
	VFMADD231PD Z23, Z7, Z25
	VADDPD  Z25, Z24, Z24
	VMOVUPD Z24, K1, (DI)(BX*1)
	VMOVUPD.Z (R11)(BX*1), K1, Z26
	VMULPD  Z17, Z9, Z27
	VFMADD231PD Z16, Z8, Z26
	VFMADD231PD Z18, Z10, Z26
	VFMADD231PD Z19, Z11, Z27
	VFMADD231PD Z20, Z12, Z26
	VFMADD231PD Z21, Z13, Z27
	VFMADD231PD Z22, Z14, Z26
	VFMADD231PD Z23, Z15, Z27
	VADDPD  Z27, Z26, Z26
	VMOVUPD Z26, K1, (R11)(BX*1)
	JMP  accum_first

accum_none:
	MOVQ $-1, left+40(FP)

accum_done:
	VZEROUPPER
	RET

// iota8 is the lane number of each of a ZMM register's eight quadwords.
DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

// func matvec8(dst, w, x, b *float64, in, n8 int)
//
// One sample through n8 blocks of eight weight rows: dst[o] = dot(w[o*in:], x)
// + b[o] for o < 8*n8, each output DOT4_BODY's chain to the bit. A row's
// accumulator is one ZMM register (element i on lane i mod 8); x is loaded
// once per eight elements for all eight rows; the in%8 >= 4 half-step is a
// merge-masked FMA on lanes 0-3. The fold runs on the eight rows at once:
//
//	l_k + l_(k+4)          rows (0,2), (1,3), (4,6), (5,7) paired by VSHUFF64X2
//	(a0+a2), (a1+a3)       rows 0,2,4,6 and 1,3,5,7 paired by VSHUFF64X2
//	(a0+a2) + (a1+a3)      the two halves interleaved by VUNPCKL/HPD
//
// the operands DOT4_BODY's VADDPD/VEXTRACTF128/VSHUFPD fold pairs, left one
// first, leaving row r's sum on lane r. The in%4 tail elements follow as
// FMAs against a gathered column of the block, then the bias as one add and
// the store as one vector.
//
// Z0-Z7 are the rows' accumulators, Z8 the x chunk, Z9 the gather indices
// (r*in), K1 the half-step mask; R12 walks the blocks, SI/R9/R10 rows 0, 3
// and 6 of one.
TEXT ·matvec8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R12
	MOVQ b+24(FP), BX
	MOVQ in+32(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	MOVQ n8+40(FP), R13
	VPBROADCASTQ CX, Z9
	VPMULLQ iota8<>(SB), Z9, Z9
	MOVQ $0x0F, AX
	KMOVW AX, K1

mv8_block:
	MOVQ R12, SI
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	LEAQ (R9)(R8*2), R10
	ADDQ R8, R10
	MOVQ x+16(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   mv8_half

mv8_loop8:
	VMOVUPD (DX), Z8
	VFMADD231PD (SI), Z8, Z0
	VFMADD231PD (SI)(R8*1), Z8, Z1
	VFMADD231PD (SI)(R8*2), Z8, Z2
	VFMADD231PD (R9), Z8, Z3
	VFMADD231PD (R9)(R8*1), Z8, Z4
	VFMADD231PD (R9)(R8*2), Z8, Z5
	VFMADD231PD (R10), Z8, Z6
	VFMADD231PD (R10)(R8*1), Z8, Z7
	ADDQ $64, DX
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, R10
	DECQ AX
	JNZ  mv8_loop8

mv8_half:
	TESTQ $4, CX
	JZ    mv8_fold
	VMOVUPD (DX), Y8
	VMOVUPD (SI), Y16
	VMOVUPD (SI)(R8*1), Y17
	VMOVUPD (SI)(R8*2), Y18
	VMOVUPD (R9), Y19
	VMOVUPD (R9)(R8*1), Y20
	VMOVUPD (R9)(R8*2), Y21
	VMOVUPD (R10), Y22
	VMOVUPD (R10)(R8*1), Y23
	VFMADD231PD Z16, Z8, K1, Z0
	VFMADD231PD Z17, Z8, K1, Z1
	VFMADD231PD Z18, Z8, K1, Z2
	VFMADD231PD Z19, Z8, K1, Z3
	VFMADD231PD Z20, Z8, K1, Z4
	VFMADD231PD Z21, Z8, K1, Z5
	VFMADD231PD Z22, Z8, K1, Z6
	VFMADD231PD Z23, Z8, K1, Z7
	ADDQ $32, DX
	ADDQ $32, SI

mv8_fold:
	VSHUFF64X2 $0x44, Z2, Z0, Z16
	VSHUFF64X2 $0xEE, Z2, Z0, Z17
	VADDPD     Z17, Z16, Z16 // rows 0, 2: l_k + l_(k+4)
	VSHUFF64X2 $0x44, Z3, Z1, Z18
	VSHUFF64X2 $0xEE, Z3, Z1, Z19
	VADDPD     Z19, Z18, Z18 // rows 1, 3
	VSHUFF64X2 $0x44, Z6, Z4, Z20
	VSHUFF64X2 $0xEE, Z6, Z4, Z21
	VADDPD     Z21, Z20, Z20 // rows 4, 6
	VSHUFF64X2 $0x44, Z7, Z5, Z22
	VSHUFF64X2 $0xEE, Z7, Z5, Z23
	VADDPD     Z23, Z22, Z22 // rows 5, 7
	VSHUFF64X2 $0x88, Z20, Z16, Z0
	VSHUFF64X2 $0xDD, Z20, Z16, Z1
	VADDPD     Z1, Z0, Z0    // rows 0, 2, 4, 6: (a0+a2), (a1+a3)
	VSHUFF64X2 $0x88, Z22, Z18, Z2
	VSHUFF64X2 $0xDD, Z22, Z18, Z3
	VADDPD     Z3, Z2, Z2    // rows 1, 3, 5, 7
	VUNPCKLPD  Z2, Z0, Z1
	VUNPCKHPD  Z2, Z0, Z3
	VADDPD     Z3, Z1, Z0    // row r's sum on lane r
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   mv8_bias

mv8_tail1:
	KXNORW K2, K2, K2
	VGATHERQPD (SI)(Z9*8), K2, Z1
	VBROADCASTSD (DX), Z8
	VFMADD231PD Z1, Z8, Z0
	ADDQ $8, DX
	ADDQ $8, SI
	DECQ AX
	JNZ  mv8_tail1

mv8_bias:
	VADDPD  (BX), Z0, Z0
	VMOVUPD Z0, (DI)
	LEAQ (R12)(R8*8), R12
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ R13
	JNZ  mv8_block
	VZEROUPPER
	RET
