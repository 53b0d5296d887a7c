// Package workload builds the traces the paper evaluates on. The original
// study uses a five-month 2018 production log from Theta at ALCF extended
// with burst-buffer requests mined from Darshan I/O records (§IV-A); that
// log is not redistributable, so this package generates a synthetic
// Theta-like base trace matching the published statistics (machine scale,
// job-size mixture, lognormal runtimes, diurnal/weekly arrival modulation,
// overestimated walltimes) and then applies the exact workload
// transformations of Table III (S1-S5) and the power extension of §V-E
// (S6-S10). Everything is parameterized by a scale divisor so the full
// 4392-node machine and CI-sized replicas share one code path, with demands
// expressed as capacity fractions to preserve contention levels.
//
// # Realism axes
//
// Beyond the uniform Table III stressors, three axes push a trace toward
// what production logs look like. Zipf user skew (zipf.go) labels jobs
// with owners drawn from a Zipf distribution over a fixed population —
// pure accounting metadata, since schedulers are user-blind by the
// internal/job contract. Bursty arrivals (burst.go) modulate the
// generator's exponential gaps with a two-state calm/burst Markov chain,
// the discrete-time form of a Markov-modulated Poisson process; the chain
// draws from a private stream, so a modulated trace's job bodies are
// byte-identical to the unmodulated one, a chain with equal scales is
// byte-identical to plain interarrival scaling, and unit scales are a
// no-op — the metamorphic identities generators_test.go pins. Trace
// ingestion (traces.go) replays a committed SWF excerpt from another
// machine (LoadTraceBase): demands are rescaled as source-machine
// fractions onto the target system, arrivals rebased and gap-normalized,
// users preserved — the T1-T5 scenario family that measures cross-machine
// policy transfer. All three are driven by internal/scenario spec fields
// (zipf_theta/zipf_users, burst, trace) and their variant syntax
// ("S4@zipf=0.9,burst=5x0.25").
//
// # Which form copies
//
// Apply (and ApplyPower) never touch their input: they build the scenario's
// jobs afresh, in the slab layout job.CloneAll documents — one []Job, one
// []int every Demand is cut from with cap = len, one []*Job — so the result
// belongs to the caller. The two variant axes, NoiseWalltimesInPlace and
// AssignZipfUsersInPlace, run on jobs the caller owns — what
// experiments.Materials.WorkloadSpec and cmd/mrsch-gen run on the jobs Apply
// has just handed them, so a cell copies each job once however many axes it
// stacks; a caller that keeps its input makes the copy itself (job.CloneAll).
// slab_test.go holds them against the per-job loops they replaced.
//
// # Determinism and seeding
//
// Every generator and transform in this package takes an explicit seed and
// builds a private rand.Rand from it; no function consults global randomness
// or the wall clock, so a (config, seed) pair always yields the same trace,
// the same Table III transformation, and the same curriculum job sets. The
// experiment campaign derives all of these seeds from one Scale.Seed with
// fixed offsets (internal/experiments), and parallel training/sweep
// episodes keep their own per-episode streams on top — see the
// internal/rollout package documentation for that contract.
package workload
