// Package kernel is the SIMD kernel layer under internal/nn: the four
// floating-point hot loops of the training and inference engines — the
// batched Dense matmul forward, the transposed-matmul input gradient, the
// weight-gradient accumulation, and the fused Adam step — packaged as a
// Set of function pointers selected once at process start, plus the weight
// transpose the input gradient reads (Transpose: a move, the same bits from
// every set; 4x4 register blocks in the avx2 set), the one-pass gradient
// fold a training step's tail runs (FoldNorm: add the shadow, zero it, sum
// the squares — nn.L2Norm's bits from every set), in a set that has one, a
// packed forward for a layer whose input is mostly runs of zeros (Pack,
// PackedForward: one sample, or a batch whose rows share one pass
// over the weights) and, outside the engine, a four-words-a-step
// integer-and-compare scan the simulator's backfill runs on (BackfillScan4).
//
// # Kernel sets
//
// Two sets exist today, and they compute the same bits: they differ in
// speed, not arithmetic.
//
//   - "go" — the portable set: the avx2 set's five primitives and its Adam
//     step written out in Go (numerical contract, below) under the same loop
//     nests. It runs wherever the avx2 set cannot (other architectures,
//     amd64 CPUs without AVX2 and FMA, purego builds), is the reference the
//     kernel suites hold the avx2 set to, and has no packed path and no
//     BackfillScan4. The lane map costs scalar code time: a 394x128 forward
//     at 16 samples takes 616 µs where one-accumulator Go loops take 270 (71
//     in the avx2 set's 256-bit form; one core of a shared 2.1 GHz Xeon), and
//     where the CPU has no FMA, math.FMA is software (math/fma.go) and it
//     takes 25 ms (GODEBUG=cpu.fma=off); README "Benchmarks" gives the
//     end-to-end cost.
//
//   - "avx2" (amd64 only) — hand-written AVX2/FMA assembly primitives
//     (4-row fused-multiply-add dot products, 8/4-way rank-1 axpy updates,
//     a fully vectorized Adam step including VSQRTPD/VDIVPD) bound to the
//     same loop nests as the go set. A single sample is one assembly call per
//     layer (the same dot-product bodies, looped over the rows in assembly),
//     and this set has the packed forward. Requires AVX2, FMA, and OS AVX
//     state support (OSXSAVE/XCR0), probed via CPUID.
//     Where the CPU also has AVX512F, DQ and VL and the OS keeps ZMM state,
//     the three batched kernels and the one-sample forward run in 512-bit
//     register-tiled forms (wide_amd64.s, packed_amd64.s): a 4-row x 4-sample
//     tile of dot products for the forward and the input gradient, two
//     weight-gradient rows per pass over eight samples for the accumulation,
//     eight weight rows per pass over one sample (one ZMM accumulator a row)
//     for a lone sample and the samples a tile leaves, and sixteen packed rows
//     per pass over the listed chunks (one ZMM accumulator per two rows) for
//     the packed forward, each with its whole loop in one assembly call.
//     The batched packed forward takes its blocks the same way, every row of
//     the batch through each block's passes in turn.
//     They are forms of this set, not a third set: the arithmetic — which
//     element meets which FMA chain, in what order chains are folded, where
//     a multiply is rounded before an add — is what goldens, checkpoints and
//     cross-process byte comparisons rest on, and neither the 512-bit forms
//     (numerical contract, fourth fact) nor the go set changes any of it.
//     The instruction set a chain is issued in is not part of it. Features
//     reports which forms are live; nothing selects them but the CPU
//     (SetWide is the tests' hook, and moves all five kernels together).
//
// # Selection
//
// The CPU alone selects the set, once, at package init, and the choice is
// process-global: Active returns the same Set for the life of the process,
// and every caller — inference at bsz=1 (Act/Pick), the batched decision
// path (BatchDecider), and the training engine (TrainStep) — funnels
// through it. It is the avx2 set where the probe finds AVX2, FMA and the
// OS's YMM state, and the go set otherwise. No setting chooses a set: the
// sets compute the same bits, so a choice could only pick slower code.
//
// The tests run the go set where the CPU would pick avx2 by building with
// the purego tag, the Go ecosystem's tag for "no assembly":
//
//	go test -tags purego ./internal/nn/...
//
// A purego build compiles kernel_other.go, the dispatch every non-amd64 host
// compiles, and none of the kernel assembly. In the default build the kernel
// suites call both sets directly and hold the avx2 set to the go set.
//
// # Numerical contract
//
// Every set computes the same bits, so every bitwise guarantee of the stack
// holds under either set and across them: batch rows are bitwise identical
// to single-sample calls at every batch size (each sample row is computed by
// the same primitive in the same order regardless of bsz — the serve
// daemon's byte-identity contract rides on this), rollout/pipelined training
// is bitwise reproducible for a fixed seed, and checkpoint resume
// reproduces the uninterrupted run.
//
// The sets share one copy of the loop nests (kernel.go) over five primitives
// and differ only in how those are issued. The go set is this list in Go, each
// fused step a math.FMA (one rounding on every architecture) and every other
// product converted to float64 on its own, which Go does not let a compiler
// fuse with the add that follows:
//
//   - dot4: four rows against one x, each on the lane map below.
//   - dot1: one row on four 4-lane chains over 16-element steps, a tail of
//     eight on chains 0-1 and a tail of four on chain 2, the chains added
//     lane-wise (c0+c1)+(c2+c3), the lanes (v0+v2)+(v1+v3), then the n%4
//     tail by scalar FMA.
//   - axpy8, axpy4: per element, an even chain started from dst through
//     samples 0, 2, 4, 6 and an odd chain started from sample 1's rounded
//     product through 3, 5, 7, FMAs in sample order, joined by one add.
//     axpy1 is one FMA an element.
//   - The Adam step: m = fma(a1, g, m·beta1), v = fma(a2, g·g, v·beta2),
//     val = fma(-lr, q, val) with q = (m·invB1c) / (sqrt(v·invB2c) + eps).
//
// The packed forward of the avx2 set is DenseForward at bsz = 1 to the bit,
// not to a tolerance. Three facts carry that:
//
//   - The lane map. A dot4 row sends element i of x to lane i mod 8 of two
//     4-wide accumulators, each lane a chain of FMAs in index order, and
//     folds them ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then adds the in%4
//     tail elements by scalar FMA and the bias last. The packed kernel
//     de-interleaves x into its even and odd elements, so 4-wide chunk k of
//     the even half is lanes [l0,l2,l4,l6] of dense step k and chunk k of the
//     odd half is [l1,l3,l5,l7]. An even and an odd accumulator, each reduced
//     by the same extract-high/add/shuffle/add sequence, give (l0+l4)+(l2+l6)
//     and (l1+l5)+(l3+l7); their sum, the same tail FMAs and the same bias
//     add follow in the same order. When in%8 >= 4 dot4's last half-step
//     fills lanes 0-3 only; here it is an ordinary chunk whose upper two
//     lanes are zero padding in both x and W.
//
//   - The exact no-op. fma(w, ±0, acc) == acc for a finite w and an acc
//     that is not itself a zero, and 0 + 0·0 is a zero, so dropping a chunk
//     of x whose four lanes are all ±0 — or multiplying a lane of padding —
//     leaves every lane either bit-equal to the dense one or a zero of
//     possibly the other sign. (A lane can hold -0 only when a non-zero
//     product underflowed to it.) That invariant survives every add of the
//     fold and every FMA of the tail, and the bias add erases it — x + b is
//     b for either zero x — unless b is -0.
//
//   - Hence the preconditions, which Pack checks and declines on: every
//     weight finite (w = Inf or NaN times a skipped 0 is NaN in the dense
//     path) and no bias equal to -0. It also declines out%4 != 0, whose
//     remainder rows the dense path runs through the differently-shaped
//     dot1. x is unrestricted: a chunk holding a NaN or an infinity is not
//     all zero and is multiplied like any other.
//
// The property test (TestPackedEqualsDenseBitwise) compares bits over every
// in mod 8 residue and fails when the fold order or one lane assignment is
// perturbed. The go set has no packed path; callers stay on DenseForward.
//
// The batched packed forward is DenseForward row by row to the bit as well,
// at every batch size. It lists the chunks that are non-zero in any row of
// the batch, once, and runs every row over that one list: each row block's
// weights for a stretch of the list are read once and stay in cache while
// every row takes them. Two more facts carry its rows:
//
//   - One order. A row's accumulators meet the listed chunks in index order,
//     in an even pass and then an odd one, as its lone forward meets its own
//     chunks; the fold, the even + odd join, the tail FMAs and the bias add
//     are the lone forward's, in its order. The list is walked in stretches,
//     and a row's accumulators are stored and reloaded between them, which
//     moves no bit.
//
//   - The exact no-op again. A listed chunk that is all ±0 in this row —
//     non-zero only in another — adds a product of ±0 to each of the row's
//     lanes: the case the second fact above covers. Which rows share a batch
//     therefore changes which chunks a row multiplies, never a bit of it.
//
// TestPackedBatchEqualsDenseBitwise and FuzzPackedBatch compare each row to
// DenseForward at bsz = 1 in both forms, over every in%4 tail, out%8 of 0
// and 4, one to three stretches of the list, batches of 1 to 17 rows and
// rows whose chunks are zero in some rows only.
//
// The 512-bit forms are their 256-bit forms to the bit, on every input
// including NaN, infinities and zeros of either sign (up to which payload an
// FMA of two NaNs keeps). A fourth fact carries that:
//
//   - One ZMM register is the lane map. dot4 keeps element i of a row on
//     lane i mod 8 of two 4-wide accumulators; element i of a 512-bit
//     accumulator sits on lane i mod 8 of one 8-wide register, the same
//     chain of FMAs in the same order. Folding its high 256 bits onto its
//     low 256, then high 128 onto low 128, then the odd lane onto the even
//     is ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) again; the in%4 tail is the
//     same scalar FMAs after the fold and the bias the same last add (the
//     input gradient has no bias and gets no add — adding +0 would turn a
//     -0 sum into +0). When in%8 >= 4, dot4's half-step touches only its
//     first accumulator; here it is a merge-masked FMA on lanes 0-3, which
//     leaves lanes 4-7 exactly as they were — not multiplied by a padding
//     zero, which would make NaN of an infinite weight and could flip the
//     sign of a lane that holds -0. That is the whole -0 argument: no lane
//     ever sees an operation the 256-bit form does not perform. Sixteen such
//     accumulators (4 rows x 4 samples) fit because EVEX has 32 registers;
//     which rows share a tile changes which loads are shared, never a chain.
//     The one-sample form folds eight rows' registers at once: cross-register
//     lane shuffles (VSHUFF64X2, VUNPCKL/HPD) bring together exactly the two
//     operands each of the fold's three adds takes, the left one first, and
//     leave row r's sum on lane r, where the in%4 tail FMAs (against a gathered
//     column) and the bias add run for the eight rows as one vector each. The
//     packed form's register holds two rows' 4-lane chains side by side — a
//     chunk broadcast to both halves meets row r's weights in the low half and
//     row r+1's in the high one — and its fold is FOLD4's pairs taken the same
//     way, sixteen rows at a time; the sums come out in a fixed lane order,
//     which the even + odd join (lane-wise) keeps and one permute undoes.
//     The weight-gradient chains (axpy8, above) are element-wise, so eight
//     lanes, four lanes, a masked remainder and a scalar tail all store the
//     same element; the zero-coefficient row skip is per row, and a row left
//     without a partner goes through axpy8.
//     Rows, samples and input gradients a tile does not cover go through
//     dot4 and dot1 exactly where the 256-bit loops send them (dot1's
//     16-in-flight chain is a different rounding, so who gets it must not
//     move).
//
// TestWideDenseFormsBitwise, TestWideAccumFormsBitwise and FuzzDenseForms
// compare bits over every in mod 8, out mod 8, bsz mod 4 (mod 8 for the
// accumulation; bsz 1-3 against matvec as well) and every skip pattern of a
// row pair, with every lane at -0 when the half-step runs;
// TestPackedEqualsDenseBitwise holds the packed forward to the dense one in
// each form; TestWideFormsSensitivity shows the comparison failing when the
// half-step lands on lanes 4-7, the fold pairs neighbours (tile and one-sample
// form alike) or two packed rows trade places.
//
// FoldNorm's sum of squares is nn.L2Norm's in every set, not to a tolerance
// either: four interleaved sums, the len%4 tail on the first, added left to
// right, and each term a multiply rounded on its own (float64(g*g) in Go) and
// then an add, so the avx2 kernel may not fuse there (VMULPD then VADDPD).
//
// BackfillScan4 moves no bit, in the one set that has it: per word, a
// 64-bit subtraction from each limit, a mask and an equality (VPSUBQ,
// VPAND, VPCMPEQQ), which no lane order changes, and one IEEE add, now+wall,
// correctly rounded and with no multiply to fuse, under an ordered <=, false
// on NaN like Go's (VADDPD, VCMPPD). So it gives the index the same
// expression in Go gives; TestBackfillScan4Forms holds it to that on random
// words and guards. What the words mean is internal/sim's.
//
// Across sets nothing moves: TestCrossSetAgreement and TestCrossSetAdam hold
// each avx2 form to the go set bit for bit (a NaN matching any NaN) at every
// in, out and bsz mod 8, every skip pattern, ±0, subnormals, NaN and ±Inf, and
// TestSetsMatchTextbookLoops holds both to one-accumulator loops and the Adam
// formula to 1e-12. Byte-compared artifacts (distributed cells, checkpoints,
// served decisions against offline picks) still depend on the host: math.Exp,
// which workload generation and nn's Softmax call, takes an FMA path on amd64
// CPUs with AVX and FMA (useFMA, math/exp_amd64.go) that rounds differently,
// and arm64 has its own (math/exp_arm64.s). So identity across hosts needs the
// same GOARCH and, on amd64, the same AVX+FMA support; arm64 is unverified.
package kernel
