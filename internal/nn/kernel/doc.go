// Package kernel is the SIMD kernel layer under internal/nn: the four
// floating-point hot loops of the training and inference engines — the
// batched Dense matmul forward, the transposed-matmul input gradient, the
// weight-gradient accumulation, and the fused Adam step — packaged as a
// Set of function pointers selected once at process start, plus the weight
// transpose the input gradient reads (Transpose: a move, the same bits from
// every set; 4x4 register blocks in the avx2 set) and, in a set that has
// one, a packed one-sample forward for a layer whose input is mostly runs
// of zeros (Pack, PackedForward).
//
// # Kernel sets
//
// Two sets exist today:
//
//   - "go" — the portable pure-Go loops, retained verbatim from the
//     pre-dispatch engine (cache-blocked, 4/8-way register-unrolled). This
//     is the arithmetic reference set: it runs on every architecture and
//     its results are bit-for-bit the pre-dispatch engine's.
//
//   - "avx2" (amd64 only) — hand-written AVX2/FMA assembly primitives
//     (4-row fused-multiply-add dot products, 8/4-way rank-1 axpy updates,
//     a fully vectorized Adam step including VSQRTPD/VDIVPD) driven by the
//     same cache-blocking loop nests as the go set. A single sample is one
//     assembly call per layer (the same dot-product bodies, looped over the
//     rows in assembly), and this set has the packed forward. Requires AVX2,
//     FMA, and OS AVX state support (OSXSAVE/XCR0), probed via CPUID.
//
// # Selection and the MRSCH_KERNEL override
//
// Selection happens exactly once, at package init, and is process-global:
// Active returns the same Set for the life of the process, and every
// caller — inference at bsz=1 (Act/Pick), the batched decision path
// (BatchDecider), and the training engine (TrainStep) —
// funnels through it. The best supported set wins by default; the
// MRSCH_KERNEL environment variable forces one for testing:
//
//	MRSCH_KERNEL=go    # force the portable reference set
//	MRSCH_KERNEL=avx2  # force AVX2/FMA; panics at init if unsupported
//
// An unknown or unsupported forced name panics at init — a forced run
// must never silently fall back to a different set than it asked for.
//
// # Numerical contract
//
// Within one process all kernel users share one Set, so every intra-process
// bitwise guarantee of the stack holds unchanged under either set: batch
// rows are bitwise identical to single-sample calls at every batch size
// (each sample row is computed by the same primitive in the same order
// regardless of bsz — the serve daemon's byte-identity contract rides on
// this), rollout/pipelined training is bitwise reproducible for a fixed
// (Seed, Workers), and checkpoint resume reproduces the uninterrupted run.
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
// Across sets the results differ by floating-point reassociation and FMA
// contraction only: the avx2 set accumulates in 4-wide lanes and contracts
// multiply-add pairs, so a given output matches the go set to a relative
// ~1e-16 per operation, property-tested to ≤1e-12 end to end (including
// tail shapes where in/out/bsz are not multiples of the vector width).
// Artifacts that must be byte-comparable across processes (distributed
// collation, checkpoint files, served decisions vs offline picks) therefore
// require the same kernel set on both sides — automatic on one host, and
// forceable anywhere with MRSCH_KERNEL=go.
package kernel
