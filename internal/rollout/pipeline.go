// Pipelined rollout-training: collection of episode i+1 overlaps the
// gradient steps on episode i's transcript. The barrier mode (rollout.go)
// serializes the two phases for its reproducibility-reference role, which
// leaves the learner idle while the actor rolls out and the actor idle while
// the learner trains. Pipelining fills the idle halves — where there is a
// CPU to fill them with: on the 2-vCPU guest it is level with barrier mode
// at the two gradient shards a step runs on (ROADMAP, Performance, "knob
// audit"); unmeasured beyond 2 vCPUs. It splits the weights in two:
//
//   - The actor reads the published copy-on-write weight snapshot (nn.Param
//     versioning via SnapshotLearner.SpawnSnapshot), frozen for the duration
//     of a round.
//
//   - The learner reduces transcripts and steps the live weights on the
//     reduction goroutine, concurrently with the in-flight collection.
//
// At each round boundary — the only synchronization point — the in-flight
// collection is joined and the live weights are published into the snapshot.
// Collection of episode r therefore acts on the weights as of the end of
// episode r-2's reduction: a one-round policy lag, the classic trade of
// asynchronous actor-learner schedulers (MARS and the original A3C line),
// in exchange for hiding rollout latency behind training. Determinism is
// preserved: episode rngs are keyed to the episode index (rule 1 of the
// package contract), transcripts are reduced in episode order on one
// goroutine, and the snapshot a round sees is a pure function of the seed,
// so a pipelined run is bitwise reproducible run to run — it just differs
// from the barrier interleaving.
package rollout

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// SnapshotLearner is a Learner whose actors can roll out against a published
// copy-on-write weight snapshot while the live weights train — the
// capability Config.Pipelined requires. Implemented by the MRSch and
// scalar-RL adapters over dfp.Agent.SnapshotActor / rl.Scheduler.
type SnapshotLearner interface {
	Learner
	// SpawnSnapshot returns the actor a pipelined run rolls out with,
	// reading the published weight snapshot.
	SpawnSnapshot() Actor
	// Publish copies the live weights into the snapshot the actors read.
	// The harness calls it only at round boundaries, with no rollout in
	// flight.
	Publish()
}

// pipeRound is one double-buffered collection slot: the transcript and
// rollout error of episode i.
type pipeRound struct {
	tr  Transcript
	err error
	i   int
}

// trainPipelined runs Train's pipelined mode: episode i+1 is collected by a
// background goroutine against the current snapshot while episode i reduces
// inline, with a join + publish at every round boundary. See the file doc
// for the synchronization argument and the package doc for the determinism
// contract (rules 6-8).
func trainPipelined(l Learner, cfg Config, sets []core.JobSet) ([]core.EpisodeResult, error) {
	sl, ok := l.(SnapshotLearner)
	if !ok {
		return nil, fmt.Errorf("rollout: Config.Pipelined requires a SnapshotLearner, %T is not one (unset Pipelined for barrier mode)", l)
	}
	n := len(sets)
	if n == 0 {
		return nil, nil
	}
	actor := sl.SpawnSnapshot()
	if err := cfg.validateResume(n); err != nil {
		return nil, err
	}
	m := newRolloutMetrics(l, cfg)
	if cfg.Resume >= n {
		return nil, nil // everything already reduced before the crash
	}
	if cfg.Resume == 0 {
		// Materialize + publish the initial snapshot before any rollout.
		sl.Publish()
	}
	// On resume the snapshot buffers were restored from the checkpoint and
	// already hold the weights the first re-collected episode must act on —
	// the version published one round before the checkpoint (rule 10), NOT
	// the live weights. Publishing here would overwrite them; the live
	// weights publish after the priming collection below, exactly where the
	// interrupted run published them.

	collect := func(r *pipeRound, i int) {
		r.i = i
		r.tr, r.err = actor.Rollout(episodeAt(cfg, sets, i))
	}

	cur, nxt := &pipeRound{}, &pipeRound{}
	collect(cur, cfg.Resume) // prime the pipeline: nothing to overlap yet
	if cfg.Resume > 0 {
		// The interrupted run published its post-reduction weights right
		// after the checkpoint was written, i.e. after this episode's
		// collection had joined; re-publish them now that the priming
		// collection (which read the restored pre-crash snapshot) is done.
		sl.Publish()
	}

	results := make([]core.EpisodeResult, 0, n-cfg.Resume)
	for {
		// Clock reads sit at round boundaries only, and only when telemetry
		// is wired — they never influence collection, reduction, or publish.
		var t0 time.Time
		if m.timed {
			t0 = time.Now()
		}
		// Launch the next episode against the current snapshot before
		// reducing this one — the overlap that is the point of the mode.
		var done chan struct{}
		if next := cur.i + 1; next < n {
			done = make(chan struct{})
			go func(r *pipeRound, i int) {
				defer close(done)
				collect(r, i)
			}(nxt, next)
		}

		// Reduce the current episode inline.
		var loopErr error
		results, loopErr = reduceEpisode(l, cfg, m, sets, cur.i, cur.tr, cur.err, results)

		// Round boundary: join the in-flight collection even on error (no
		// goroutine may outlive the call), checkpoint while the live weights
		// and the still-unpublished snapshot are both quiescent, then
		// publish the post-reduction weights for the episode after next.
		if done != nil {
			<-done
		}
		if loopErr != nil {
			return results, loopErr
		}
		if err := runCheckpoint(cfg, cur.i+1); err != nil {
			return results, err
		}
		var dt time.Duration
		if m.timed {
			dt = time.Since(t0)
		}
		m.roundDone(cfg.Journal, cur.i+1, dt)
		if done == nil {
			return results, nil
		}
		sl.Publish()
		cur, nxt = nxt, cur
	}
}
