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
	// Workers is read by nothing: a round is always one episode, so a run
	// is a function of its learner, Seed, Pipelined and job sets alone. The
	// field survives because bench/ sets it, and only ROADMAP item 1 may
	// edit bench/.
	Workers int
	// Seed roots the per-episode rng derivation: episode i explores with a
	// private rng seeded EpisodeSeed(Seed, i).
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
	// Checkpoint, when non-nil, runs at every round boundary (after every
	// episode) with the number of episodes fully reduced into the learner
	// so far (including
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
	// same (Seed, Pipelined) over the same job sets. Train rejects a
	// Resume outside [0, len(sets)].
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

// Actor rolls out one episode at a time. A single actor is never invoked
// concurrently with itself.
type Actor interface {
	Rollout(ep Episode) (Transcript, error)
}

// Learner is the master-side trainer driving a rollout run.
type Learner interface {
	// Spawn returns the actor a barrier run rolls its episodes out with.
	// The second result is read by nothing (it once reported whether
	// actors could run concurrently): it survives because bench/ wraps
	// this interface, and only ROADMAP item 1 may edit bench/.
	Spawn() (Actor, bool)
	// Reduce folds one episode's transcript into the learner — replay
	// ingestion and gradient steps for MRSch, the REINFORCE update for
	// scalar RL. The harness calls it on one goroutine, in episode order,
	// with no rollouts in flight.
	Reduce(ep Episode, tr Transcript) (core.EpisodeResult, error)
}

// Train collects the job sets as episodes and reduces them into the learner
// in episode order.
//
// The run proceeds in rounds of one episode: roll it out against the current
// weights, reduce its transcript into the learner, checkpoint. Episode i's
// exploration is driven by a private rng seeded EpisodeSeed(cfg.Seed, i) and
// the episode's own slot in the exploration schedule, so the full result
// stream — including final network weights — is bitwise reproducible, and
// the loop is the serial reference loop in rollout_test.go.
//
// With cfg.Pipelined set, Train instead overlaps episode i+1's collection
// with episode i's reduction against a versioned weight snapshot
// (pipeline.go).
func Train(l Learner, cfg Config, sets []core.JobSet) ([]core.EpisodeResult, error) {
	if cfg.Pipelined {
		return trainPipelined(l, cfg, sets)
	}
	return trainBarrier(l, cfg, sets)
}

// trainBarrier is the barrier training loop: collect an episode, then
// reduce it, with no overlap between the phases.
func trainBarrier(l Learner, cfg Config, sets []core.JobSet) ([]core.EpisodeResult, error) {
	n := len(sets)
	if err := cfg.validateResume(n); err != nil {
		return nil, err
	}
	actor, _ := l.Spawn()
	m := newRolloutMetrics(l, cfg)

	results := make([]core.EpisodeResult, 0, n-cfg.Resume)
	for i := cfg.Resume; i < n; i++ {
		// Clock reads sit at round boundaries only, and only when telemetry
		// is wired — they never influence collection or reduction.
		var t0 time.Time
		if m.timed {
			t0 = time.Now()
		}
		tr, err := actor.Rollout(episodeAt(cfg, sets, i))
		if results, err = reduceEpisode(l, cfg, m, sets, i, tr, err, results); err != nil {
			return results, err
		}
		if err := runCheckpoint(cfg, i+1); err != nil {
			return results, err
		}
		var dt time.Duration
		if m.timed {
			dt = time.Since(t0)
		}
		m.roundDone(cfg.Journal, i+1, dt)
	}
	return results, nil
}

// validateResume rejects a Resume offset outside the run's n episodes.
func (c Config) validateResume(n int) error {
	if c.Resume < 0 || c.Resume > n {
		return fmt.Errorf("rollout: Resume %d outside [0, %d]", c.Resume, n)
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
// streams and the mapping is independent of scheduling.
func EpisodeSeed(base int64, episode int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(episode)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// MapCollect runs fn over items across up to `workers` goroutines (0 or
// negative = GOMAXPROCS) and returns the results and the errors in input
// order (nil for successful items) — the fan-out of a campaign's cells. fn
// receives the worker slot (for per-worker scratch), the item index, and
// the item; every item runs to completion, so campaign runners can name
// every failed grid cell in one pass.
//
// Worker w handles items w, w+workers, w+2*workers, …: the mapping is
// deterministic so per-worker scratch sees a reproducible item sequence.
// Goroutines are additionally capped at GOMAXPROCS, since the items are
// CPU-bound, and one worker runs inline on the caller's goroutine.
func MapCollect[T, R any](workers int, items []T, fn func(worker, index int, item T) (R, error)) ([]R, []error) {
	n := len(items)
	out := make([]R, n)
	errs := make([]error, n)
	if g := runtime.GOMAXPROCS(0); workers <= 0 || workers > g {
		workers = g
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i, it := range items {
			out[i], errs[i] = fn(0, i, it)
		}
		return out, errs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = fn(w, i, items[i])
			}
		}()
	}
	wg.Wait()
	return out, errs
}
