// Package kernel is the SIMD kernel layer under internal/nn: the four
// floating-point hot loops of the training and inference engines — the
// batched Dense matmul forward, the transposed-matmul input gradient, the
// weight-gradient accumulation, and the fused Adam step — packaged as a
// Set of function pointers selected once at process start.
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
//     same cache-blocking loop nests as the go set. Requires AVX2, FMA,
//     and OS AVX state support (OSXSAVE/XCR0), probed via CPUID.
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
