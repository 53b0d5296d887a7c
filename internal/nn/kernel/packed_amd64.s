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

// The batched packed forward (packed_amd64.go, packedBatchForward). The caller
// de-interleaves each row of the batch into xs with packedSpread — per row,
// K even chunks, K odd chunks, then the in%4 tail elements, xstride bytes in
// all — and lists the chunks that are non-zero in some row by their byte
// offset in a row of xs (32 a chunk, so chunk c of an R-row block sits at
// offset × R). Then each row block takes an even pass over the even list and
// an odd pass over the odd list, one call each. A pass runs every row of the
// batch over the list in segments of SEG chunks, whose weights stay in L1
// from one row to the next, carrying a row's accumulators in acc between
// segments: each accumulator is the same chain of FMAs in the same order as
// in the lone forward's pass, only stored and reloaded on its way. After the
// last segment the even pass folds and keeps each row's sums at acc+512; the
// odd pass (dst != nil) folds, adds them to the kept even sums, then the tail
// FMAs and the bias, as packedMatvec does, and stores the row's outputs at
// dst + row × dstride. acc holds 640 bytes a row.

#define SEG 32

// SPREAD_CHUNK is LIST_CHUNK's de-interleave without the list: the eight
// elements of x in Y0 (first four) and Y1 go to DI (even) and DI+R9 (odd),
// and each half's non-zero lane flags are or-ed into its byte at SI (even)
// or R10 (odd). Y7 = 0.
#define SPREAD_CHUNK \
	VUNPCKLPD Y1, Y0, Y2; \
	VUNPCKHPD Y1, Y0, Y3; \
	VPERMPD $0xD8, Y2, Y2; \
	VPERMPD $0xD8, Y3, Y3; \
	VMOVUPD Y2, (DI); \
	VMOVUPD Y3, (DI)(R9*1); \
	VCMPPD $4, Y7, Y2, Y2; \
	VCMPPD $4, Y7, Y3, Y3; \
	VMOVMSKPD Y2, AX; \
	ORB AL, (SI); \
	VMOVMSKPD Y3, AX; \
	ORB AL, (R10); \
	ADDQ $32, DI; \
	INCQ SI; \
	INCQ R10

// SEGMENT sets R9 to the chunks of the segment that starts R8 chunks into
// the list, and DI to 1 when it is the list's last (possibly empty) one.
#define SEGMENT(cut, rows) \
	MOVQ n+40(FP), R9; \
	SUBQ R8, R9; \
	XORQ DI, DI; \
	CMPQ R9, $SEG; \
	JGT  cut; \
	MOVQ $1, DI; \
	JMP  rows; \
cut: \
	MOVQ $SEG, R9

// ROWS starts the walk over the batch's rows: DX the row's chunks, R11 its
// acc, R12 its outputs (0 in the even pass), R10 the rows left.
#define ROWS \
	MOVQ xs+8(FP), DX; \
	MOVQ acc+32(FP), R11; \
	MOVQ dst+0(FP), R12; \
	MOVQ bsz+48(FP), R10

// CHUNKS points CX at the segment's first listed offset and AX at its count.
#define CHUNKS \
	MOVQ offs+24(FP), CX; \
	LEAQ (CX)(R8*8), CX; \
	MOVQ R9, AX

// NEXT_ROW moves to the next row, and after the last one to the next segment
// until the last segment is done.
#define NEXT_ROW(row, seg) \
	ADDQ xstride+72(FP), DX; \
	ADDQ $640, R11; \
	DECQ R10; \
	JNZ  row; \
	ADDQ R9, R8; \
	TESTQ DI, DI; \
	JZ   seg

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

// func packedSpread(xs *float64, mask *uint8, x *float64, in int)
//
// De-interleaves the in-in%4 body of one row x into xs (K even chunks, then K
// odd ones) and marks in mask (K even flags, then K odd ones) every chunk
// with a lane that is not ±0. in >= 4.
TEXT ·packedSpread(SB), NOSPLIT, $0-32
	MOVQ xs+0(FP), DI
	MOVQ mask+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ in+24(FP), CX
	ANDQ $-4, CX
	MOVQ CX, R8                // body
	LEAQ 4(CX), AX
	SHRQ $3, AX                // K
	LEAQ (SI)(AX*1), R10       // the odd chunks' flags
	SHLQ $5, AX
	MOVQ AX, R9                // the odd chunks start K×32 bytes into the row
	VXORPD Y7, Y7, Y7
	SHRQ $3, CX
	JZ   spread_half

spread_loop:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	SPREAD_CHUNK
	ADDQ $64, DX
	DECQ CX
	JNZ  spread_loop

spread_half:
	TESTQ $4, R8
	JZ    spread_done
	VMOVUPD (DX), Y0
	VXORPD Y1, Y1, Y1
	SPREAD_CHUNK

spread_done:
	VZEROUPPER
	RET

// func packedPass4(dst, xs, w *float64, offs *int64, acc *float64, n, bsz, k, tail, xstride, dstride int)
//
// One pass of a 4-row block (the last block when out%8 == 4): four
// accumulators a row, packedMatvec's pass4.
TEXT ·packedPass4(SB), NOSPLIT, $0-88
	MOVQ w+16(FP), SI
	XORQ R8, R8                // listed chunks before this segment

seg4:
	SEGMENT(cut4, rows4)

rows4:
	ROWS

row4:
	TESTQ R8, R8
	JNZ   load4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP   run4

load4:
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3

run4:
	CHUNKS
	TESTQ AX, AX
	JZ    ran4

chunk4:
	MOVQ (CX), BX
	VMOVUPD (DX)(BX*1), Y8
	LEAQ (SI)(BX*4), BX        // chunk c of a 4-row block: 128c bytes
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD 32(BX), Y8, Y1
	VFMADD231PD 64(BX), Y8, Y2
	VFMADD231PD 96(BX), Y8, Y3
	ADDQ $8, CX
	DECQ AX
	JNZ  chunk4

ran4:
	TESTQ DI, DI
	JNZ   fold4b
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	JMP   next4

fold4b:
	FOLD4(Y0, Y1, Y2, Y3, Y8, Y12)
	TESTQ R12, R12
	JNZ   join4b
	VMOVUPD Y12, 512(R11)
	JMP   next4

join4b:
	VMOVUPD 512(R11), Y10
	VADDPD  Y12, Y10, Y10      // even sum + odd sum
	MOVQ k+56(FP), BX
	SHLQ $8, BX                // 2K chunks × 4 rows × 32 bytes
	ADDQ SI, BX
	MOVQ k+56(FP), AX
	SHLQ $6, AX
	ADDQ DX, AX                // the row's tail elements
	MOVQ tail+64(FP), CX
	TESTQ CX, CX
	JZ   bias4b

tail4b:
	VBROADCASTSD (AX), Y8
	VFMADD231PD (BX), Y8, Y10
	ADDQ $8, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  tail4b

bias4b:
	VADDPD  (BX), Y10, Y10
	VMOVUPD Y10, (R12)
	ADDQ dstride+80(FP), R12

next4:
	NEXT_ROW(row4, seg4)
	VZEROUPPER
	RET

// func packedPass8(dst, xs, w *float64, offs *int64, acc *float64, n, bsz, k, tail, xstride, dstride int)
//
// One pass of an 8-row block: eight accumulators a row, packedMatvec's pass8.
TEXT ·packedPass8(SB), NOSPLIT, $0-88
	MOVQ w+16(FP), SI
	XORQ R8, R8

seg8:
	SEGMENT(cut8, rows8)

rows8:
	ROWS

row8:
	TESTQ R8, R8
	JNZ   load8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP   run8

load8:
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3
	VMOVUPD 128(R11), Y4
	VMOVUPD 160(R11), Y5
	VMOVUPD 192(R11), Y6
	VMOVUPD 224(R11), Y7

run8:
	CHUNKS
	TESTQ AX, AX
	JZ    ran8

chunk8:
	MOVQ (CX), BX
	VMOVUPD (DX)(BX*1), Y8
	LEAQ (SI)(BX*8), BX        // chunk c of an 8-row block: 256c bytes
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD 32(BX), Y8, Y1
	VFMADD231PD 64(BX), Y8, Y2
	VFMADD231PD 96(BX), Y8, Y3
	VFMADD231PD 128(BX), Y8, Y4
	VFMADD231PD 160(BX), Y8, Y5
	VFMADD231PD 192(BX), Y8, Y6
	VFMADD231PD 224(BX), Y8, Y7
	ADDQ $8, CX
	DECQ AX
	JNZ  chunk8

ran8:
	TESTQ DI, DI
	JNZ   fold8b
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	VMOVUPD Y4, 128(R11)
	VMOVUPD Y5, 160(R11)
	VMOVUPD Y6, 192(R11)
	VMOVUPD Y7, 224(R11)
	JMP   next8

fold8b:
	FOLD4(Y0, Y1, Y2, Y3, Y8, Y12)
	FOLD4(Y4, Y5, Y6, Y7, Y8, Y13)
	TESTQ R12, R12
	JNZ   join8b
	VMOVUPD Y12, 512(R11)
	VMOVUPD Y13, 544(R11)
	JMP   next8

join8b:
	VMOVUPD 512(R11), Y10
	VMOVUPD 544(R11), Y11
	VADDPD  Y12, Y10, Y10      // even sum + odd sum
	VADDPD  Y13, Y11, Y11
	MOVQ k+56(FP), BX
	SHLQ $9, BX                // 2K chunks × 8 rows × 32 bytes
	ADDQ SI, BX
	MOVQ k+56(FP), AX
	SHLQ $6, AX
	ADDQ DX, AX                // the row's tail elements
	MOVQ tail+64(FP), CX
	TESTQ CX, CX
	JZ   bias8b

tail8b:
	VBROADCASTSD (AX), Y8
	VFMADD231PD (BX), Y8, Y10
	VFMADD231PD 32(BX), Y8, Y11
	ADDQ $8, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  tail8b

bias8b:
	VADDPD  (BX), Y10, Y10
	VADDPD  32(BX), Y11, Y11
	VMOVUPD Y10, (R12)
	VMOVUPD Y11, 32(R12)
	ADDQ dstride+80(FP), R12

next8:
	NEXT_ROW(row8, seg8)
	VZEROUPPER
	RET

// func packedPass16(dst, xs, w *float64, offs *int64, acc *float64, n, bsz, k, tail, xstride, dstride int)
//
// One pass of two 8-row blocks in 512-bit registers (AVX512F/DQ/VL): eight
// ZMM accumulators a row, packedMatvec's pass16, its fold and its reorder.
TEXT ·packedPass16(SB), NOSPLIT, $0-88
	MOVQ w+16(FP), SI
	MOVQ k+56(FP), R13
	SHLQ $3, R13
	ADDQ tail+64(FP), R13
	LEAQ 1(R13), R13
	SHLQ $6, R13               // bytes in an 8-row block: 8 × (8K + in%4 + 1) × 8
	VMOVUPD order16<>(SB), Z31
	XORQ R8, R8

seg16:
	SEGMENT(cut16, rows16)

rows16:
	ROWS

row16:
	TESTQ R8, R8
	JNZ   load16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP   run16

load16:
	VMOVUPD (R11), Z0
	VMOVUPD 64(R11), Z1
	VMOVUPD 128(R11), Z2
	VMOVUPD 192(R11), Z3
	VMOVUPD 256(R11), Z4
	VMOVUPD 320(R11), Z5
	VMOVUPD 384(R11), Z6
	VMOVUPD 448(R11), Z7

run16:
	CHUNKS
	TESTQ AX, AX
	JZ    ran16

chunk16:
	MOVQ (CX), BX
	VBROADCASTF64X4 (DX)(BX*1), Z8
	LEAQ (SI)(BX*8), BX
	VFMADD231PD (BX), Z8, Z0
	VFMADD231PD 64(BX), Z8, Z1
	VFMADD231PD 128(BX), Z8, Z2
	VFMADD231PD 192(BX), Z8, Z3
	VFMADD231PD (BX)(R13*1), Z8, Z4
	VFMADD231PD 64(BX)(R13*1), Z8, Z5
	VFMADD231PD 128(BX)(R13*1), Z8, Z6
	VFMADD231PD 192(BX)(R13*1), Z8, Z7
	ADDQ $8, CX
	DECQ AX
	JNZ  chunk16

ran16:
	TESTQ DI, DI
	JNZ   fold16b
	VMOVUPD Z0, (R11)
	VMOVUPD Z1, 64(R11)
	VMOVUPD Z2, 128(R11)
	VMOVUPD Z3, 192(R11)
	VMOVUPD Z4, 256(R11)
	VMOVUPD Z5, 320(R11)
	VMOVUPD Z6, 384(R11)
	VMOVUPD Z7, 448(R11)
	JMP   next16

fold16b:
	VSHUFF64X2 $0x88, Z1, Z0, Z16
	VSHUFF64X2 $0xDD, Z1, Z0, Z17
	VADDPD     Z17, Z16, Z16
	VSHUFF64X2 $0x88, Z3, Z2, Z18
	VSHUFF64X2 $0xDD, Z3, Z2, Z19
	VADDPD     Z19, Z18, Z18
	VSHUFF64X2 $0x88, Z5, Z4, Z20
	VSHUFF64X2 $0xDD, Z5, Z4, Z21
	VADDPD     Z21, Z20, Z20
	VSHUFF64X2 $0x88, Z7, Z6, Z22
	VSHUFF64X2 $0xDD, Z7, Z6, Z23
	VADDPD     Z23, Z22, Z22
	VUNPCKLPD  Z18, Z16, Z17
	VUNPCKHPD  Z18, Z16, Z19
	VADDPD     Z19, Z17, Z0    // the first block's sums, rows 0 4 1 5 2 6 3 7
	VUNPCKLPD  Z22, Z20, Z21
	VUNPCKHPD  Z22, Z20, Z23
	VADDPD     Z23, Z21, Z1    // the second block's
	TESTQ R12, R12
	JNZ   join16b
	VMOVUPD Z0, 512(R11)
	VMOVUPD Z1, 576(R11)
	JMP   next16

join16b:
	VMOVUPD 512(R11), Z24
	VMOVUPD 576(R11), Z25
	VADDPD  Z0, Z24, Z24       // even sum + odd sum
	VADDPD  Z1, Z25, Z25
	VPERMPD Z24, Z31, Z24
	VPERMPD Z25, Z31, Z25
	MOVQ k+56(FP), BX
	SHLQ $9, BX                // 2K chunks × 8 rows × 32 bytes
	ADDQ SI, BX
	MOVQ k+56(FP), AX
	SHLQ $6, AX
	ADDQ DX, AX                // the row's tail elements
	MOVQ tail+64(FP), CX
	TESTQ CX, CX
	JZ   bias16b

tail16b:
	VBROADCASTSD (AX), Z8
	VFMADD231PD (BX), Z8, Z24
	VFMADD231PD (BX)(R13*1), Z8, Z25
	ADDQ $8, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  tail16b

bias16b:
	VADDPD  (BX), Z24, Z24
	VADDPD  (BX)(R13*1), Z25, Z25
	VMOVUPD Z24, (R12)
	VMOVUPD Z25, 64(R12)
	ADDQ dstride+80(FP), R12

next16:
	NEXT_ROW(row16, seg16)
	VZEROUPPER
	RET
