// Package nn is a small, dependency-free neural-network substrate.
//
// The MRSch paper implements its agent in TensorFlow; this package is the
// stdlib-only substitute. It provides exactly what the paper's networks need:
// fully-connected (Dense) layers, 1-D convolution and pooling (for the CNN
// state-module ablation of Figure 3), leaky-rectifier activations, softmax,
// a mean-squared-error loss, the Adam optimizer, and weight
// (de)serialization.
//
// All layers implement the one Layer interface, so arbitrary directed
// compositions (such as DFP's three-branch, two-stream topology) can be wired
// by hand in higher-level packages. The interface is closed — its clone
// method is unexported, see "Weight snapshots" — so the set of
// layer types is this package's.
//
// # The layer contract
//
// Forward(dst, x, bsz) and Backward(dst, grad, bsz) process a minibatch of
// bsz row-major samples per call; a single sample is a batch of one, and
// there is no other path:
//
//   - Row k of a batched Forward is bitwise equal to the bsz=1 result for
//     that row, under either kernel set. Inference at any batch size and
//     sample-at-a-time training therefore run the same arithmetic as the
//     batched engine's forward.
//
//   - dst == nil selects a lazily-grown layer-owned buffer that stays valid
//     until the layer's next call and is read-only: a layer may route its
//     backward pass through it (LeakyReLU routes on the output sign).
//     Sequential threads these buffers through the chain, so after warm-up a
//     whole network runs forward and backward with zero heap allocations.
//
//   - The input is copied, never retained: callers may reuse or mutate x
//     between Forward and Backward.
//
//   - Backward must follow a Forward of the same bsz. Parameter gradients
//     accumulate summed over the batch rows, across calls, until the
//     optimizer zeroes them. A parameter holds no gradient until the first
//     Backward that accumulates into it (Dense, Conv1D) allocates one, so a
//     network that only runs forward passes holds its values alone.
//
// Dense runs a batch as cache-blocked, register-unrolled matrix-matrix
// kernels: the forward tiles weight rows to stay L1-resident across the
// batch with a 4-wide output microkernel, the weight-gradient accumulation
// merges 8 samples' rank-1 updates into one streaming pass, and the input
// gradient runs through a per-call transposed weight copy (kernel.Set.Transpose)
// so every dot product is sequential. At bsz=1 its backward is the exact-order
// element-wise loop (denseBackwardRow), which agrees with the batched
// kernels to ≤1e-12. Conv1D, MaxPool1D and Softmax run their row kernel per
// sample, the element-wise activations treat the batch as one longer vector,
// and MultiBranch gathers each branch's columns of all rows, runs the
// branch's own batched pass, and scatters the rows back.
//
// A single sample (bsz=1) through Dense is one kernel call per layer. Dense.Pack
// additionally builds a packed copy of W and B for the active set's packed
// forward (kernel.Set.Pack: the avx2 set has one, the go set does not, and a
// layer the kernel declines stays dense), after which every Forward, at any
// batch size, skips the chunks of x that are zero in all of its rows — with
// the same bits as before, so the row contract above is untouched. The copy
// lives in one buffer the layer keeps and does not follow the weights:
// whoever packs must pack again after they change. Dense.SharePack has a
// SharedClone read its original's copy instead, through scratch of its own,
// so clones over weights that no longer change share one copy. A layer that
// Dense.PackOnly packs is packed-only: its dense W is dropped and
// AppendWeights reads the rows back out of the packed copy.
// Only dfp packs — a rollout actor's state-module first layer, refreshed on
// the first forward after each Reset, or a model's, once, read by every
// evaluator and batched decider of it — so the training engine reads W
// itself through DenseForward.
//
// For data-parallel training, SharedClone replicates a network so that the
// replica shares parameter Values with the original but owns private
// forward state and, once it runs Backward, private gradients; each worker
// accumulates into its own, and the caller reduces them before the
// optimizer step. internal/dfp does this for the two shards of every step,
// with every shard on a replica: the workers' gradients are summed into the
// first worker's and ApplyRange updates the original's values from it, so
// the original — the agent's own network — never holds a gradient. Clones
// come without gradient storage, and the many made for inference — rollout
// actors, evaluators, the serve daemon's pooled deciders — never run
// Backward and never get one.
//
// The Adam update comes apart the same way. BeginStep opens an update (step
// counter, bias corrections, moment vectors for parameters that have none),
// ClipFactor turns one parameter's gradient into its multiplier (scale,
// shrunk to the clip norm, through L2Norm's fixed four-lane order), and
// ApplyRange runs the fused kernel over elements [lo,hi) of one parameter
// from the gradient its caller names — the parameter's own, or a reduced
// replica gradient.
// A caller that reduces replica gradients first takes the norm on the way:
// FoldNorm adds a shadow gradient into the sum, zeroes the shadow and
// returns the L2 norm of the result in one pass (kernel.Set.FoldNorm — to
// the bit what AddTo, Fill and L2Norm give, in both sets), and ClipFactorOf
// is ClipFactor from that norm.
// Step and StepScaled are those three in a loop, so there is one update
// arithmetic; after BeginStep, ApplyRange calls on disjoint ranges may run
// on different goroutines, and because the kernel is element-wise in both
// sets the cuts do not change a bit. ApplyRange looks the moment vectors up
// on every call: a loaded train state replaces them, and a holder of the old
// ones would update vectors the optimizer no longer owns.
//
// # Weight snapshots
//
// Pipelined training (internal/rollout) needs readers of round-k weights to
// run concurrently with the writer of round-k+1 weights. Each Param can
// therefore carry a copy-on-write snapshot of its Value (snapshot.go):
//
//   - Param.Snapshot materializes a stable second buffer holding a copy of
//     the current Value; SnapshotClone builds a network replica whose params
//     alias those buffers (with private forward state), so any number of
//     replicas can run forward passes against frozen weights while the live
//     Values train.
//
//   - Param.Publish / PublishParams copies the live Value into the snapshot
//     buffer in place. Because the buffer is shared by every replica,
//     Publish must only run at a synchronization point with no replica
//     mid-forward — internal/rollout's inter-round join. Replicas observe
//     the new weights on their next forward pass without re-cloning.
//
//   - Params that are never snapshotted skip the copy entirely, so
//     inference-only agents and barrier-mode training pay nothing
//     (the copy-on-write property).
//
// SharedClone and SnapshotClone are two views of one structural cloner
// (Layer's unexported clone method, each layer's case written next to the
// type): the former aliases live Values for same-weights data parallelism,
// the latter aliases published snapshots for lagged-weights pipelining.
// That method is why Layer is closed — a type outside this package cannot
// implement it — and why neither cloner can fail: every data-parallel,
// pipelined and served path in dfp, rl, rollout, experiments and serve is a
// clone, and the one caller-provided module the repository has
// (core's per-resource MultiBranch) is built from this package's layers. A
// new layer type is a new file here with its clone beside it.
//
// The contract is enforced by property tests (batch_test.go) across
// randomized shapes: batched forward rows bitwise equal to bsz=1, ≤1e-12
// gradient agreement between batched and row-at-a-time backward, caller dst
// equal to the layer-owned buffer, plus finite-difference checks on the
// batched kernels.
//
// # Kernel dispatch
//
// The four floating-point hot loops under the layers above — the batched
// Dense forward, the transposed-matmul input gradient, the weight-gradient
// accumulation, and the fused Adam step — with the weight transpose that
// feeds the second and the packed forward live in
// internal/nn/kernel as a function Set the CPU selects once at process
// start: the portable pure-Go set ("go"), or a CPUID-dispatched AVX2/FMA assembly set ("avx2") on supporting
// amd64 hosts, whose three batched kernels run in 512-bit register-tiled
// forms where the CPU has AVX-512 (kernel.Features says which forms are live).
// The set also carries FoldNorm, the training step's one-pass gradient fold.
// The go set is the avx2 set's primitives written out in Go under the same
// loop nests, so a set is a choice of speed, not of arithmetic: batch rows
// against bsz=1 calls, rollout determinism for a fixed seed,
// checkpoint resume and the serve daemon's batched-vs-offline byte identity
// hold within a process and across sets. Across hosts the standard library
// can still move a bit: math.Exp (workload generation, Softmax) takes an FMA
// path on amd64 CPUs with AVX and FMA that rounds differently, and arm64 has
// its own. Byte-identical artifacts across hosts need the same GOARCH and, on
// amd64, the same AVX+FMA support; arm64 against amd64 is unverified.
//
// The CPU alone selects the set; no setting forces one. A build with the
// purego tag compiles no kernel assembly and runs the go set on any host,
// which is how the tests exercise it (go test -tags purego ./...);
// kernel.Name and kernel.Features report what was selected for startup logs.
package nn
