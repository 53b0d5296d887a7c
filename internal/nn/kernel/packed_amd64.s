//go:build amd64

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

// func packedMatvec(dst, x, w, xs *float64, offs *int64, in, out int)
//
// dst = W·x + b for one sample against a packed layer; out is a multiple of 4.
// Stage 1 lists x's non-zero even and odd chunks once. Stage 2 takes the row
// blocks in turn: one pass over the xe list and one over the xo list, each
// chunk one FMA per row into that row's accumulator, FOLD4 after each pass,
// then even sum + odd sum, the in%4 tail FMAs and the bias, four rows to a
// vector.
TEXT ·packedMatvec(SB), NOSPLIT, $32-56
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
	JZ   rows4

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
