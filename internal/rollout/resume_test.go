package rollout

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The crash-resume equivalence suite: killing a training run at a round
// boundary and resuming from the checkpoint written there must be bitwise
// identical to never having been interrupted — the same final weights and
// the same EpisodeResult stream (contract rules 9-10). Exercised for
// barrier and pipelined modes, Workers 1 and 4, and checkpoints at the
// first, a middle, and the final round boundary.

// errSimulatedCrash is the sentinel a Checkpoint hook returns to model the
// process dying right after the checkpoint write.
var errSimulatedCrash = errors.New("simulated crash")

// resumeBoundaries returns the round-boundary episode counts of a run of n
// episodes with effective round width w: first, a middle one, and the last.
func resumeBoundaries(w, n int) []int {
	var all []int
	for b := w; b < n; b += w {
		all = append(all, b)
	}
	all = append(all, n)
	switch len(all) {
	case 1:
		return all
	case 2:
		return all
	default:
		return []int{all[0], all[len(all)/2], all[len(all)-1]}
	}
}

// trainToCrash trains a fresh agent until the checkpoint at `at` episodes,
// captures the agent state written there, and returns it with the results
// reduced before the crash.
func trainToCrash(t *testing.T, cfg Config, at int) ([]core.EpisodeResult, []byte) {
	t.Helper()
	sys := testSystem()
	sets := testSets(sys, 8, 25, 41)
	m := testAgent(sys, 17)
	// The crash and resume runs train with instruments and a journal live
	// while the reference run (runReference) does not: equivalence of the
	// final weights is then also the proof that telemetry is observe-only
	// (doc rule 11).
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Journal = telemetry.NewJournal(io.Discard)
	var state []byte
	cfg.Checkpoint = func(done int) error {
		if done != at {
			return nil
		}
		state = wire.Seal(m.Agent.AppendState(nil))
		return errSimulatedCrash
	}
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets)
	if !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash run: want simulated crash at episode %d, got err=%v", at, err)
	}
	if len(results) != at {
		t.Fatalf("crash run: %d results reduced before the crash, want %d", len(results), at)
	}
	if len(state) == 0 {
		t.Fatalf("crash run: checkpoint at %d never captured", at)
	}
	return results, state
}

// resumeFrom restores the captured state into a fresh agent and finishes
// the run, returning the tail results and the final weights.
func resumeFrom(t *testing.T, cfg Config, state []byte, from int) ([]core.EpisodeResult, []byte) {
	t.Helper()
	sys := testSystem()
	sets := testSets(sys, 8, 25, 41)
	m := testAgent(sys, 17)
	if err := wire.Unseal(state, m.Agent.ReadState); err != nil {
		t.Fatalf("resume: load state: %v", err)
	}
	cfg.Resume = from
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Journal = telemetry.NewJournal(io.Discard)
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets)
	if err != nil {
		t.Fatalf("resume from %d: %v", from, err)
	}
	return results, weightsOf(t, m)
}

func runReference(t *testing.T, cfg Config) ([]core.EpisodeResult, []byte) {
	t.Helper()
	sys := testSystem()
	sets := testSets(sys, 8, 25, 41)
	m := testAgent(sys, 17)
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets)
	if err != nil {
		t.Fatal(err)
	}
	return results, weightsOf(t, m)
}

func TestCrashResumeEquivalence(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			mode := "barrier"
			if pipelined {
				mode = "pipelined"
			}
			cfg := Config{Workers: workers, Seed: 23, Pipelined: pipelined}
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				refResults, refWeights := runReference(t, cfg)
				n := len(refResults)
				w := workers
				if w > n {
					w = n
				}
				for _, at := range resumeBoundaries(w, n) {
					prefix, state := trainToCrash(t, cfg, at)
					tail, weights := resumeFrom(t, cfg, state, at)
					if !bytes.Equal(weights, refWeights) {
						t.Errorf("resume at %d: final weights differ from the uninterrupted run", at)
					}
					combined := append(append([]core.EpisodeResult{}, prefix...), tail...)
					if !resultsEqual(combined, refResults) {
						t.Errorf("resume at %d: crash-prefix + resume-tail results differ from the uninterrupted stream", at)
					}
				}
			})
		}
	}
}

// A checkpoint written at the final boundary resumes to an immediate,
// result-free completion with the reference weights intact.
func TestResumeAtCompletion(t *testing.T) {
	cfg := Config{Workers: 4, Seed: 23}
	refResults, refWeights := runReference(t, cfg)
	_, state := trainToCrash(t, cfg, len(refResults))
	tail, weights := resumeFrom(t, cfg, state, len(refResults))
	if len(tail) != 0 {
		t.Fatalf("resume at completion reduced %d episodes, want 0", len(tail))
	}
	if !bytes.Equal(weights, refWeights) {
		t.Fatal("resume at completion: weights differ from the uninterrupted run")
	}
}

// Resume offsets that don't land on a round boundary are rejected loudly
// in both modes — silently re-collecting a partial round would break the
// equivalence contract.
func TestResumeRejectsMidRound(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 8, 25, 41)
	for _, pipelined := range []bool{false, true} {
		m := testAgent(sys, 17)
		cfg := Config{Workers: 4, Seed: 23, Pipelined: pipelined, Resume: 3}
		if _, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets); err == nil {
			t.Errorf("pipelined=%v: mid-round Resume=3 with Workers=4 accepted, want error", pipelined)
		}
		m = testAgent(sys, 17)
		cfg.Resume = 9
		if _, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets); err == nil {
			t.Errorf("pipelined=%v: out-of-range Resume=9 accepted, want error", pipelined)
		}
	}
}

// The checkpoint hook fires at every round boundary with the cumulative
// episode count, including the final one.
func TestCheckpointBoundaries(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 6, 25, 41)
	for _, pipelined := range []bool{false, true} {
		m := testAgent(sys, 17)
		var got []int
		cfg := Config{Workers: 4, Seed: 23, Pipelined: pipelined,
			Checkpoint: func(done int) error { got = append(got, done); return nil }}
		if _, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets); err != nil {
			t.Fatal(err)
		}
		want := []int{4, 6}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("pipelined=%v: checkpoint boundaries %v, want %v", pipelined, got, want)
		}
	}
}
