package rollout

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config tunes the harness.
type Config struct {
	// Workers is the number of simulator environments rolled out
	// concurrently. 0 or negative uses runtime.GOMAXPROCS(0), mirroring
	// dfp.Config.Workers. Any fixed value is deterministic run to run; pin
	// it explicitly (e.g. 1) when reproducibility across machines matters,
	// because different worker counts produce different (equally valid)
	// training interleavings.
	Workers int
	// Seed roots the per-episode rng derivation: episode i explores with a
	// private rng seeded EpisodeSeed(Seed, i), independent of which worker
	// runs it and of the worker count.
	Seed int64
	// Pipelined overlaps episode collection with training: while the
	// learner reduces round k's transcripts, round k+1 is already rolling
	// out against the weight snapshot published at the previous round
	// boundary (see pipeline.go and the package doc's pipelined rules). It
	// requires a SnapshotLearner — Train returns an error otherwise rather
	// than silently falling back to barrier mode. false keeps the barrier
	// reference: collect, then train, with no overlap.
	Pipelined bool
	// AfterEpisode, when non-nil, runs on the reduction goroutine after each
	// episode is folded into the learner, in episode order. Model-selection
	// protocols (§IV-A validation) hook in here; returning an error aborts
	// the run. The learner's live weights are stable during the call: in
	// barrier mode no rollouts are in flight at all, and in pipelined mode
	// the only concurrent rollouts read the published snapshot, never the
	// live weights, so read-only evaluation of the learner remains safe.
	AfterEpisode func(episode int, r core.EpisodeResult) error
	// Checkpoint, when non-nil, runs at every round boundary with the
	// number of episodes fully reduced into the learner so far (including
	// the final boundary, where done == len(sets)). The learner is
	// quiescent during the call: no rollout is in flight, the round's
	// transcripts are reduced, and — in pipelined mode — the hook runs
	// after the in-flight collection joins and BEFORE the round's weights
	// publish, so the live weights and the published snapshot are exactly
	// the pair a resumed run must restore (rules 9-10 of the package doc).
	// Returning an error aborts the run.
	Checkpoint func(done int) error
	// Resume skips episodes [0, Resume): their effects must already be in
	// the learner, restored from a checkpoint written by a run with the
	// same (Seed, Workers, Pipelined) over the same job sets. Train
	// validates that Resume lands on a round boundary (a multiple of the
	// effective round width) and errors otherwise — resuming mid-round
	// would re-collect part of a round against post-round weights and
	// silently break bitwise equivalence.
	Resume int
	// Metrics, when set, receives the harness's rollout_* instruments
	// (rounds, episodes, throughput, epsilon, loss) and is offered to the
	// learner via the Instrumented extension. Telemetry is observe-only:
	// results and weights are bitwise identical with and without it (doc
	// rule 11).
	Metrics *telemetry.Registry
	// Journal, when set, receives one JSONL event per round boundary.
	Journal *telemetry.Journal
}

// ResolveWorkers applies the package-wide worker-count default: n <= 0
// means runtime.GOMAXPROCS(0). It is the single place the convention is
// implemented; callers that display or persist an effective worker count
// use it rather than re-deriving the default.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func (c Config) resolveWorkers() int { return ResolveWorkers(c.Workers) }

// Episode identifies one rollout: its global index in the run, the job set
// it replays, and the deterministic seed of its private exploration rng.
type Episode struct {
	Index int
	Seed  int64
	Set   core.JobSet
}

// Transcript is an opaque episode record passed from an Actor to its
// Learner's Reduce (dfp.Transcript for MRSch, rl.Trajectory for scalar RL).
type Transcript any

// Actor rolls out one episode at a time on behalf of one worker. Distinct
// actors returned by a Learner reporting true may run concurrently; a single
// actor is never invoked concurrently with itself.
type Actor interface {
	Rollout(ep Episode) (Transcript, error)
}

// Learner is the master-side trainer driving a rollout run.
type Learner interface {
	// Spawn returns a per-worker actor. The second result reports whether
	// the actor may run concurrently with other spawned actors; the first
	// false collapses the pool to a single worker. Both learners in this
	// package always report true: the result survives because bench/ wraps
	// this interface, and only ROADMAP item 1 may edit bench/.
	Spawn() (Actor, bool)
	// Reduce folds one episode's transcript into the learner — replay
	// ingestion and gradient steps for MRSch, the REINFORCE update for
	// scalar RL. The harness calls it on one goroutine, in episode order,
	// with no rollouts in flight.
	Reduce(ep Episode, tr Transcript) (core.EpisodeResult, error)
}

// Train collects the job sets as episodes across the worker pool and reduces
// them into the learner in episode order.
//
// The run proceeds in rounds of Workers episodes. Within a round every
// episode is rolled out concurrently against the weight snapshot at round
// start; at the round barrier the transcripts are reduced in episode order
// (deterministic floating-point and replay-ingestion order), the learner
// updates its weights, and the next round begins. Episode i's exploration is
// driven by a private rng seeded EpisodeSeed(cfg.Seed, i) and the episode's
// own slot in the exploration schedule, so for a fixed (Seed, Workers) pair
// the full result stream — including final network weights — is bitwise
// reproducible run to run, and Workers=1 reproduces the serial reference loop
// in rollout_test.go exactly.
//
// With cfg.Pipelined set, Train instead overlaps round k+1's collection with
// round k's reduction against a versioned weight snapshot (pipeline.go); the
// barrier loop below is retained verbatim as the bitwise-reproducibility
// reference that Pipelined=false must (and trivially does) match.
func Train(l Learner, cfg Config, sets []core.JobSet) ([]core.EpisodeResult, error) {
	if cfg.Pipelined {
		return trainPipelined(l, cfg, sets)
	}
	return trainBarrier(l, cfg, sets)
}

// trainBarrier is the round-barrier training loop: collect a round, then
// reduce it, with no overlap between the phases.
func trainBarrier(l Learner, cfg Config, sets []core.JobSet) ([]core.EpisodeResult, error) {
	n := len(sets)
	w := cfg.resolveWorkers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	actors := make([]Actor, 0, w)
	for i := 0; i < w; i++ {
		a, parallel := l.Spawn()
		actors = append(actors, a)
		if !parallel {
			// Unreachable from this repository's learners; kept because
			// Learner is an interface others may implement.
			actors = actors[:1]
			break
		}
	}
	w = len(actors)
	if err := cfg.validateResume(w, n); err != nil {
		return nil, err
	}
	m := newRolloutMetrics(l, cfg)

	results := make([]core.EpisodeResult, 0, n-cfg.Resume)
	trs := make([]Transcript, w)
	errs := make([]error, w)
	for start := cfg.Resume; start < n; start += w {
		// Clock reads sit at round boundaries only, and only when telemetry
		// is wired — they never influence collection or reduction.
		var t0 time.Time
		if m.timed {
			t0 = time.Now()
		}
		cnt := w
		if start+cnt > n {
			cnt = n - start
		}
		dispatch(cnt, cnt, func(worker, i int) {
			trs[i], errs[i] = actors[worker].Rollout(episodeAt(cfg, sets, start+i))
		})
		for i := 0; i < cnt; i++ {
			var err error
			if results, err = reduceEpisode(l, cfg, m, sets, start+i, trs[i], errs[i], results); err != nil {
				return results, err
			}
		}
		if err := runCheckpoint(cfg, start+cnt); err != nil {
			return results, err
		}
		var dt time.Duration
		if m.timed {
			dt = time.Since(t0)
		}
		m.roundDone(cfg.Journal, start+cnt, cnt, dt)
	}
	return results, nil
}

// validateResume rejects a Resume offset that does not land on a round
// boundary of the effective round width w over n episodes.
func (c Config) validateResume(w, n int) error {
	if c.Resume == 0 {
		return nil
	}
	if c.Resume < 0 || c.Resume > n {
		return fmt.Errorf("rollout: Resume %d outside [0, %d]", c.Resume, n)
	}
	if c.Resume%w != 0 && c.Resume != n {
		return fmt.Errorf("rollout: Resume %d is not a round boundary (round width %d): checkpoints are written at round boundaries only, so the checkpoint and this run disagree on Workers", c.Resume, w)
	}
	return nil
}

// runCheckpoint invokes the round-boundary checkpoint hook, wrapping its
// error with the boundary position.
func runCheckpoint(cfg Config, done int) error {
	if cfg.Checkpoint == nil {
		return nil
	}
	if err := cfg.Checkpoint(done); err != nil {
		return fmt.Errorf("rollout: checkpoint at episode %d: %w", done, err)
	}
	return nil
}

// reduceEpisode folds one collected episode into the learner: surface the
// rollout error, Reduce the transcript, record the result, and run the
// AfterEpisode hook. It is the per-episode sequence shared by trainBarrier
// and trainPipelined, so the two modes cannot drift apart in error wrapping
// or hook semantics; the test suite's serial reference keeps its own inline
// copy as the independent oracle.
func reduceEpisode(l Learner, cfg Config, m rolloutMetrics, sets []core.JobSet, idx int, tr Transcript, rollErr error, results []core.EpisodeResult) ([]core.EpisodeResult, error) {
	if rollErr != nil {
		return results, fmt.Errorf("rollout: episode %d (%s): %w", idx, sets[idx].Kind, rollErr)
	}
	r, err := l.Reduce(episodeAt(cfg, sets, idx), tr)
	if err != nil {
		return results, fmt.Errorf("rollout: reduce episode %d (%s): %w", idx, sets[idx].Kind, err)
	}
	m.episodeDone(r.Epsilon, r.Loss)
	results = append(results, r)
	if cfg.AfterEpisode != nil {
		if err := cfg.AfterEpisode(idx, r); err != nil {
			return results, err
		}
	}
	return results, nil
}

func episodeAt(cfg Config, sets []core.JobSet, i int) Episode {
	return Episode{Index: i, Seed: EpisodeSeed(cfg.Seed, i), Set: sets[i]}
}

// EpisodeSeed derives episode i's exploration-rng seed from the harness base
// seed with a splitmix64 finalizer, so neighboring episodes get decorrelated
// streams and the mapping is independent of worker count and scheduling.
func EpisodeSeed(base int64, episode int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(episode)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// dispatch runs fn(worker, item) for every item in [0, n) across up to
// `workers` goroutines, worker w handling items w, w+workers, w+2*workers, …
// The worker→item mapping is deterministic so per-worker state (actors,
// scratch) sees a reproducible item sequence. Execution goroutines are
// additionally capped at GOMAXPROCS: rollouts are CPU-bound, so running a
// logical round of k environments on fewer cores serializes some of them
// without changing any result (each item fully resets its worker state),
// and a single-core host pays no goroutine overhead at all. workers<=1 runs
// inline on the caller's goroutine. dispatch returns when all items are
// done.
func dispatch(workers, n int, fn func(worker, item int)) {
	if workers > n {
		workers = n
	}
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// MapCollect runs fn over items across up to `workers` goroutines (0 = all
// cores) and returns the results and the errors in input order (nil for
// successful items) — the episode-sweep primitive that shares the
// worker-pool engine with Train. fn receives the worker slot (for per-worker
// scratch), the item index, and the item; every item runs to completion, so
// campaign runners can name every failed grid cell in one pass.
func MapCollect[T, R any](workers int, items []T, fn func(worker, index int, item T) (R, error)) ([]R, []error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	dispatch(Config{Workers: workers}.resolveWorkers(), len(items), func(w, i int) {
		out[i], errs[i] = fn(w, i, items[i])
	})
	return out, errs
}
