// Package dfp implements Direct Future Prediction (Dosovitskiy & Koltun,
// ICLR 2017), the multi-objective reinforcement-learning algorithm MRSch is
// built on (§II-B of the paper). A DFP agent is trained to predict, for each
// candidate action, how a vector of measurements will change at several
// temporal offsets into the future, conditioned on the current sensory
// state, the current measurements, and a goal vector expressing the relative
// importance of each measurement. Acting greedily means choosing the action
// whose predicted future-measurement changes score highest under the goal.
//
// The network follows the paper's architecture: three input modules (state,
// measurement, goal) whose outputs are concatenated into a joint
// representation, processed by two parallel streams — an expectation stream
// and an action stream normalized across actions (the dueling decomposition
// of Wang et al.) — and summed into per-action predictions. The state module
// is an MLP in MRSch; the original DFP's convolutional module is provided as
// an option for the Figure 3 ablation.
//
// # Engine invariants
//
// The hot paths are engineered for throughput over the one nn.Layer contract
// (a batch of bsz row-major samples per call; a single sample is bsz=1):
//
//   - There is one inference forward, modules.forwardDueling. Agent.Act,
//     Agent.Predict and Actor.Act call it at bsz=1; BatchDecider.DecideBatch
//     calls it at bsz=B and adds only the request gather, the scoring dot
//     product and the argmax. It runs through layer-owned and caller-owned
//     scratch with zero steady-state heap allocations, and every sample's
//     predictions are bitwise independent of the batch it ran in. An
//     evaluator (Model.Evaluator: an unrecorded actor at epsilon 0) answers
//     a decision its caller knows to be moot with Actor.Moot, which draws
//     the rng as Act would and runs no forward.
//
//   - TrainSteps runs a burst of gradient steps — an episode's worth — and
//     TrainStep is a burst of one. Each minibatch goes through batched
//     matrix-matrix kernels with a sparse dueling backward, cut into a fixed
//     two shards, one per worker — an nn.SharedClone replica with a
//     gradient of its own — that run on min(GOMAXPROCS, 2) goroutines
//     started once per burst; they meet at a polling barrier and share the
//     rest of the step too: the other workers' gradients are folded into
//     worker 0's in fixed worker order by each parameter's owner in one
//     pass per shadow (nn.FoldNorm: add, zero the shadow, and take the clip
//     norm's sum of squares while the gradient goes by), and the Adam
//     update of the master weights from that sum is cut into one range of
//     the concatenated parameters per goroutine (engine.go). The shard
//     count alone decides the bits, so trained weights are a function of
//     the Config at every core count; at GOMAXPROCS=1 both shards'
//     gradient buffers are kept all the same. The agent's own layers never
//     run a backward pass and hold no gradient; the workers, with their
//     gradients and training-sized buffers, are built by the first burst
//     and dropped by ReleaseWorkers — experiments.Train's last step — after
//     which the next burst rebuilds them and continues to the bit
//     (burst_test.go). ObserveSteps hands a caller the
//     calling goroutine's time in each phase of every step — shard, fold,
//     Adam, barrier waits — reading the clock only while it is set (rollout exports them as
//     dfp_step_{shard,fold,adam,wait}_ns beside dfp_train_step_ns). A
//     step must match the reference step kept in engine_test.go —
//     forwardDueling at bsz=1 plus the dense dueling backward, sample by
//     sample — to ≤1e-12 and consume the agent rng identically
//     (engine_test.go); a burst of n must be n single steps to the bit,
//     leave no goroutine behind, and allocate nothing per step — a warm
//     burst allocates only what starting its helpers costs, nothing at one
//     goroutine (burst_test.go).
//
//   - The replay buffer (replay.go) is one fixed-capacity ring: oldest-first
//     eviction, one uniform rng.Intn per sampled experience — the draw
//     sequence every trained-weights golden is pinned to
//     (TestReplaySingleShardSamplingMatchesReference). It keeps each state
//     in a lossless run-length form over element pairs (runs): a recording
//     Actor packs the state once, IngestTranscript moves that form into the
//     Experience, and only the minibatch gather and AppendState expand it,
//     back to the very float64 words recorded. MRSch's unit sections lie in
//     runs, so a stored state is about 27 % of its dense words at the quick
//     geometry, and no minibatch row or weight differs.
//
// # Weight snapshots, actors and deciders
//
// Two clone flavors serve the inference paths. Neither carries gradient
// storage: only the training engine's replica workers run a backward pass
// through a clone, and they allocate it themselves. A Model loaded from a
// file (LoadModel) draws no initial weights: its networks are built zero
// and take the file's values.
//
//   - Agent.Actor pairs nn.SharedClone replicas (weights alias the live
//     Values) with private scratch — safe to run concurrently with other
//     actors but not with TrainStep, the barrier-mode contract. A Model's
//     readers, Model.Evaluator's actors and Model.Decider's batched
//     deciders, are such replicas of the model's networks (see Models).
//
//   - Agent.SnapshotActor pairs nn.SnapshotClone replicas (weights alias the
//     published copy-on-write snapshot, see the nn package doc) with private
//     scratch — safe to run concurrently with TrainStep, because training
//     mutates only the live Values. Agent.PublishWeights advances the
//     snapshot at a synchronization point with no snapshot actor mid-
//     forward; internal/rollout's pipelined mode provides exactly that
//     point between rounds. Pipelined rollout is the only reader of a
//     snapshot.
//
// Both rollout actor flavors pack their state module's first Dense
// (nn.Dense.Pack): MRSch's state vector is half exact zeros, lying in runs,
// and the packed one-sample forward skips them with bitwise the dense
// result. The packed copy lives in one buffer per actor, from one Reset to
// the next: Reset marks it stale and the first forward after it refreshes
// it, which is the interval over which the barrier (Actor) and
// PublishWeights (SnapshotActor) already forbid an actor's weights to
// change. So an actor must be Reset after its weights change and before it
// acts again — every rollout episode is. There is nothing to configure: an
// actor that was never Reset, a CNN or per-resource state module, a layer
// the kernel declines and the go kernel set all run dense, as do TrainSteps,
// and Agent.Act and Agent.Predict always.
//
// # Models
//
// A Model is a trained network and nothing else: the configuration, the
// weights and the state module's first Dense, packed once when the model is
// built. LoadModel builds one from a model file, checking the whole file
// first, with no gradient, optimizer moments or replay ring, and decodes the
// file straight into the model's values; it then packs the first Dense and
// keeps that layer only in its packed layout (where the kernel set packs it;
// otherwise it stays dense). Agent.Model builds one
// over the agent's current weights without copying them, valid until they
// next change; its packed copy sits beside the agent's dense weights. A
// model's weights never change, so every reader it hands out (Evaluator,
// Decider) reads its one packed copy through scratch of its own
// (nn.Dense.SharePack), at every batch size, and never packs, and any number
// of them may run at once. Model.Save writes the model file, a packed-only
// layer's rows read back out of the packed copy. Evaluation
// (internal/experiments' cells, core.Validate) and the decision daemon
// (internal/serve, which swaps in a new model rather than writing weights)
// read a trained agent through a model.
//
// # Durable state
//
// Model.Save/LoadModel and Agent.Load persist weights only (the model-file
// format). AppendState/ReadState (state.go) write and read the agent's
// complete training state as one versioned section of the sealed file layout
// (internal/wire) — weights, published snapshot buffers, Adam moments and
// step counter, the replay ring with its cursor, the epsilon schedule
// position and the rng draw cursor.
// The section stores every replay state dense, as mrsch-dfp-state-v4 always
// has: the run-length form is how the ring holds a state in memory, not a
// file format, and ReadState packs each state as it loads it. An
// episode in progress lives in an Actor, never in the agent, so there is none
// to save. Saving at a quiescent point and loading into an
// identically-configured agent resumes training bit-for-bit
// (internal/rollout's round-boundary checkpoint hook is that point; see its
// package doc, rules 9-10). ReadState checks the entire section against the
// agent and changes nothing; corrupt, truncated, or mismatched input fails
// with a descriptive error and no partial state.
package dfp
