//go:build amd64 && !purego

#include "textflag.h"

// The packed one-sample forward (packed_amd64.go has the layout). Same
// register and numerical discipline as kernel_amd64.s: R14, R15 and X15
// untouched, VZEROUPPER before RET, every add and FMA with the operand order
// of the dot4 sequence it stands for.

// LIST_CHUNK takes eight consecutive elements of x in Y0 (first four) and Y1,
// writes their even elements as the next chunk of the xe list and their odd
// elements as the next chunk of the xo list, each with its block offset, and
// keeps a chunk — advances that list's count — only if some lane of it is
// not ±0 (NaN counts as not zero). Branch-free: a dropped chunk is simply
// overwritten by the next. R9/R10 = xe chunks/offsets, SI/DI = xo
// chunks/offsets, R11/R12 = 8×(chunks kept), BX/R13 = this chunk's offsets,
// Y7 = 0.
#define LIST_CHUNK \
	VUNPCKLPD Y1, Y0, Y2; \
	VUNPCKHPD Y1, Y0, Y3; \
	VPERMPD $0xD8, Y2, Y2; \
	VPERMPD $0xD8, Y3, Y3; \
	VMOVUPD Y2, (R9)(R11*4); \
	MOVQ BX, (R10)(R11*1); \
	VMOVUPD Y3, (SI)(R12*4); \
	MOVQ R13, (DI)(R12*1); \
	VCMPPD $4, Y7, Y2, Y2; \
	VCMPPD $4, Y7, Y3, Y3; \
	VMOVMSKPD Y2, AX; \
	NEGQ AX; \
	SBBQ AX, AX; \
	ANDQ $8, AX; \
	ADDQ AX, R11; \
	VMOVMSKPD Y3, AX; \
	NEGQ AX; \
	SBBQ AX, AX; \
	ANDQ $8, AX; \
	ADDQ AX, R12; \
	ADDQ $128, BX; \
	ADDQ $128, R13

// FOLD4 reduces four rows' 4-lane accumulators a, b, c, d to one vector of
// four sums in out, each sum associated (v0+v2)+(v1+v3) with the left operand
// first — what VEXTRACTF128/VADDPD/VSHUFPD/VADDSD does to one row in
// DOT4_BODY. Clobbers a and t.
#define FOLD4(a, b, c, d, t, out) \
	VPERM2F128 $0x20, c, a, out; \
	VPERM2F128 $0x31, c, a, t; \
	VADDPD t, out, out; \
	VPERM2F128 $0x20, d, b, t; \
	VPERM2F128 $0x31, d, b, a; \
	VADDPD a, t, t; \
	VUNPCKHPD t, out, a; \
	VUNPCKLPD t, out, out; \
	VADDPD a, out, out

// order16 undoes the row order the 512-bit fold leaves, 0 4 1 5 2 6 3 7.
DATA order16<>+0(SB)/8, $0
DATA order16<>+8(SB)/8, $2
DATA order16<>+16(SB)/8, $4
DATA order16<>+24(SB)/8, $6
DATA order16<>+32(SB)/8, $1
DATA order16<>+40(SB)/8, $3
DATA order16<>+48(SB)/8, $5
DATA order16<>+56(SB)/8, $7
GLOBL order16<>(SB), RODATA|NOPTR, $64

// func packedMatvec(dst, x, w, xs *float64, offs *int64, in, out, wide int)
//
// dst = W·x + b for one sample against a packed layer; out is a multiple of 4.
// Stage 1 lists x's non-zero even and odd chunks once. Stage 2 takes the row
// blocks in turn: one pass over the xe list and one over the xo list, each
// chunk one FMA per row into that row's accumulator, FOLD4 after each pass,
// then even sum + odd sum, the in%4 tail FMAs and the bias, four rows to a
// vector.
//
// With wide != 0 (the avx2 set's 512-bit form; the CPU must have AVX512F/DQ/VL)
// stage 2 first takes the 8-row blocks two at a time: each listed chunk is
// broadcast to both halves of Z8 and meets sixteen rows in eight FMAs, one ZMM
// accumulator per two rows' 4-lane chains — twice the independent chains of an
// 8-row pass for one offset load and one broadcast. The fold is FOLD4's on
// sixteen rows at once: VSHUFF64X2 pairs each row's lanes (v0,v1) with
// (v2,v3), VUNPCKL/HPD its two sums, each add with FOLD4's left operand first;
// the sums come out in the row order 0 4 1 5 2 6 3 7 of each block, which the
// even + odd join keeps and one VPERMPD undoes. A block of eight or four left
// over runs the 256-bit passes below.
TEXT ·packedMatvec(SB), NOSPLIT, $32-64
	MOVQ x+8(FP), DX
	MOVQ in+40(FP), CX
	ANDQ $-4, CX               // body
	MOVQ CX, R8
	LEAQ 4(CX), AX
	SHRQ $3, AX                // K = ceil(body/8)
	MOVQ AX, k-8(SP)
	MOVQ xs+24(FP), R9
	MOVQ offs+32(FP), R10
	SHLQ $3, AX
	LEAQ (R10)(AX*1), DI       // the xo list starts K entries in
	LEAQ (R9)(AX*4), SI
	SHLQ $4, AX
	MOVQ AX, R13               // odd chunk 0 sits K×128 bytes into a 4-row block
	XORQ BX, BX
	XORQ R11, R11
	XORQ R12, R12
	VXORPD Y7, Y7, Y7
	SHRQ $3, CX
	JZ   list_half

list_loop:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	LIST_CHUNK
	ADDQ $64, DX
	DECQ CX
	JNZ  list_loop

list_half:
	// body%8 == 4: the last four elements make a chunk of two elements and
	// two lanes of padding in each half; Pack left those lanes zero in W.
	TESTQ $4, R8
	JZ    list_done
	VMOVUPD (DX), Y0
	VXORPD Y1, Y1, Y1
	LIST_CHUNK
	ADDQ $32, DX

list_done:
	MOVQ R11, ne-16(SP)
	MOVQ R12, no-24(SP)
	MOVQ DX, xtail-32(SP)      // &x[body]

	MOVQ dst+0(FP), DI
	MOVQ w+16(FP), SI
	MOVQ out+48(FP), R12
	SHRQ $3, R12
	CMPQ wide+56(FP), $0
	JEQ  blocks8
	MOVQ k-8(SP), R13
	SHLQ $3, R13
	MOVQ in+40(FP), AX
	ANDQ $3, AX
	LEAQ 1(R13)(AX*1), R13
	SHLQ $6, R13               // bytes in an 8-row block: 8 × (8K + in%4 + 1) × 8
	VMOVUPD order16<>(SB), Z31

block16:
	CMPQ R12, $2
	JLT  blocks8
	XORQ R11, R11              // 0: the xe pass, 1: the xo pass
	MOVQ xs+24(FP), R9
	MOVQ offs+32(FP), R10
	MOVQ ne-16(SP), AX

pass16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SHRQ $3, AX
	JZ   fold16

loop16:
	MOVQ (R10), BX
	VBROADCASTF64X4 (R9), Z8
	LEAQ (SI)(BX*2), BX
	VFMADD231PD (BX), Z8, Z0
	VFMADD231PD 64(BX), Z8, Z1
	VFMADD231PD 128(BX), Z8, Z2
	VFMADD231PD 192(BX), Z8, Z3
	VFMADD231PD (BX)(R13*1), Z8, Z4
	VFMADD231PD 64(BX)(R13*1), Z8, Z5
	VFMADD231PD 128(BX)(R13*1), Z8, Z6
	VFMADD231PD 192(BX)(R13*1), Z8, Z7
	ADDQ $32, R9
	ADDQ $8, R10
	DECQ AX
	JNZ  loop16

fold16:
	VSHUFF64X2 $0x88, Z1, Z0, Z16
	VSHUFF64X2 $0xDD, Z1, Z0, Z17
	VADDPD     Z17, Z16, Z16   // rows 0-3: (v0+v2, v1+v3)
	VSHUFF64X2 $0x88, Z3, Z2, Z18
	VSHUFF64X2 $0xDD, Z3, Z2, Z19
	VADDPD     Z19, Z18, Z18   // rows 4-7
	VSHUFF64X2 $0x88, Z5, Z4, Z20
	VSHUFF64X2 $0xDD, Z5, Z4, Z21
	VADDPD     Z21, Z20, Z20   // rows 8-11
	VSHUFF64X2 $0x88, Z7, Z6, Z22
	VSHUFF64X2 $0xDD, Z7, Z6, Z23
	VADDPD     Z23, Z22, Z22   // rows 12-15
	VUNPCKLPD  Z18, Z16, Z17
	VUNPCKHPD  Z18, Z16, Z19
	VADDPD     Z19, Z17, Z0    // the first block's sums, rows 0 4 1 5 2 6 3 7
	VUNPCKLPD  Z22, Z20, Z21
	VUNPCKHPD  Z22, Z20, Z23
	VADDPD     Z23, Z21, Z1    // the second block's
	TESTQ R11, R11
	JNZ   join16
	VMOVAPD Z0, Z24
	VMOVAPD Z1, Z25
	MOVQ $1, R11
	MOVQ k-8(SP), AX
	SHLQ $3, AX
	MOVQ offs+32(FP), R10
	ADDQ AX, R10
	MOVQ xs+24(FP), R9
	LEAQ (R9)(AX*4), R9
	MOVQ no-24(SP), AX
	JMP  pass16

join16:
	VADDPD  Z0, Z24, Z24       // even sum + odd sum
	VADDPD  Z1, Z25, Z25
	VPERMPD Z24, Z31, Z24
	VPERMPD Z25, Z31, Z25
	MOVQ k-8(SP), AX
	SHLQ $9, AX                // 2K chunks × 8 rows × 32 bytes
	LEAQ (SI)(AX*1), BX
	MOVQ xtail-32(SP), DX
	MOVQ in+40(FP), CX
	ANDQ $3, CX
	JZ   bias16

tail16:
	VBROADCASTSD (DX), Z8
	VFMADD231PD (BX), Z8, Z24
	VFMADD231PD (BX)(R13*1), Z8, Z25
	ADDQ $8, DX
	ADDQ $64, BX
	DECQ CX
	JNZ  tail16

bias16:
	VADDPD  (BX), Z24, Z24
	VADDPD  (BX)(R13*1), Z25, Z25
	VMOVUPD Z24, (DI)
	VMOVUPD Z25, 64(DI)
	ADDQ $128, DI
	LEAQ 64(BX)(R13*1), SI     // the next pair follows the second bias
	SUBQ $2, R12
	JMP  block16

blocks8:
	TESTQ R12, R12
	JZ    rows4

block8:
	XORQ R11, R11              // 0: the xe pass, 1: the xo pass
	MOVQ xs+24(FP), R9
	MOVQ offs+32(FP), R10
	MOVQ ne-16(SP), AX

pass8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SHRQ $3, AX
	JZ   fold8

loop8:
	MOVQ (R10), BX
	VMOVUPD (R9), Y8
	LEAQ (SI)(BX*2), BX        // offsets are for 4-row blocks
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD 32(BX), Y8, Y1
	VFMADD231PD 64(BX), Y8, Y2
	VFMADD231PD 96(BX), Y8, Y3
	VFMADD231PD 128(BX), Y8, Y4
	VFMADD231PD 160(BX), Y8, Y5
	VFMADD231PD 192(BX), Y8, Y6
	VFMADD231PD 224(BX), Y8, Y7
	ADDQ $32, R9
	ADDQ $8, R10
	DECQ AX
	JNZ  loop8

fold8:
	FOLD4(Y0, Y1, Y2, Y3, Y8, Y12)
	FOLD4(Y4, Y5, Y6, Y7, Y8, Y13)
	TESTQ R11, R11
	JNZ   join8
	VMOVAPD Y12, Y10
	VMOVAPD Y13, Y11
	MOVQ $1, R11
	MOVQ k-8(SP), AX
	SHLQ $3, AX
	MOVQ offs+32(FP), R10
	ADDQ AX, R10
	MOVQ xs+24(FP), R9
	LEAQ (R9)(AX*4), R9
	MOVQ no-24(SP), AX
	JMP  pass8

join8:
	VADDPD Y12, Y10, Y10       // even sum + odd sum
	VADDPD Y13, Y11, Y11
	MOVQ k-8(SP), AX
	SHLQ $9, AX                // 2K chunks × 8 rows × 32 bytes
	LEAQ (SI)(AX*1), BX
	MOVQ xtail-32(SP), DX
	MOVQ in+40(FP), CX
	ANDQ $3, CX
	JZ   bias8

tail8:
	VBROADCASTSD (DX), Y8
	VFMADD231PD (BX), Y8, Y10
	VFMADD231PD 32(BX), Y8, Y11
	ADDQ $8, DX
	ADDQ $64, BX
	DECQ CX
	JNZ  tail8

bias8:
	VADDPD (BX), Y10, Y10
	VADDPD 32(BX), Y11, Y11
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, 32(DI)
	ADDQ $64, DI
	LEAQ 64(BX), SI            // the next block follows the bias
	DECQ R12
	JNZ  block8

rows4:
	// out%8 == 4: one last block of four rows, four accumulators.
	MOVQ  out+48(FP), R12
	TESTQ $4, R12
	JZ    done
	XORQ R11, R11
	MOVQ xs+24(FP), R9
	MOVQ offs+32(FP), R10
	MOVQ ne-16(SP), AX

pass4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ $3, AX
	JZ   fold4

loop4:
	MOVQ (R10), BX
	VMOVUPD (R9), Y8
	ADDQ SI, BX
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD 32(BX), Y8, Y1
	VFMADD231PD 64(BX), Y8, Y2
	VFMADD231PD 96(BX), Y8, Y3
	ADDQ $32, R9
	ADDQ $8, R10
	DECQ AX
	JNZ  loop4

fold4:
	FOLD4(Y0, Y1, Y2, Y3, Y8, Y12)
	TESTQ R11, R11
	JNZ   join4
	VMOVAPD Y12, Y10
	MOVQ $1, R11
	MOVQ k-8(SP), AX
	SHLQ $3, AX
	MOVQ offs+32(FP), R10
	ADDQ AX, R10
	MOVQ xs+24(FP), R9
	LEAQ (R9)(AX*4), R9
	MOVQ no-24(SP), AX
	JMP  pass4

join4:
	VADDPD Y12, Y10, Y10
	MOVQ k-8(SP), AX
	SHLQ $8, AX                // 2K chunks × 4 rows × 32 bytes
	LEAQ (SI)(AX*1), BX
	MOVQ xtail-32(SP), DX
	MOVQ in+40(FP), CX
	ANDQ $3, CX
	JZ   bias4

tail4:
	VBROADCASTSD (DX), Y8
	VFMADD231PD (BX), Y8, Y10
	ADDQ $8, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  tail4

bias4:
	VADDPD (BX), Y10, Y10
	VMOVUPD Y10, (DI)

done:
	VZEROUPPER
	RET
