package rollout

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

func runTrainPipelined(t *testing.T, workers int, seed int64) ([]core.EpisodeResult, []byte) {
	t.Helper()
	sys := testSystem()
	sets := testSets(sys, 6, 25, 41)
	m := testAgent(sys, seed)
	cfg := Config{Workers: workers, Seed: 23, Pipelined: true}
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets)
	if err != nil {
		t.Fatal(err)
	}
	return results, weightsOf(t, m)
}

// Pipelined runs obey contract rule 7: same seed + same worker count ⇒
// identical EpisodeResult streams and identical final weights, even though
// collection and training overlap.
func TestPipelinedDeterministicForFixedWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		r1, w1 := runTrainPipelined(t, workers, 17)
		r2, w2 := runTrainPipelined(t, workers, 17)
		if !resultsEqual(r1, r2) {
			t.Fatalf("pipelined workers=%d: result streams differ across runs:\n%v\n%v", workers, r1, r2)
		}
		if !bytes.Equal(w1, w2) {
			t.Fatalf("pipelined workers=%d: final weights differ across runs", workers)
		}
	}
}

// Pipelined training must still learn: full coverage of the sets, finite
// losses once replay fills, a non-empty replay buffer at the end.
func TestPipelinedProducesWorkingAgent(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 6, 25, 43)
	m := testAgent(sys, 19)
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), Config{Workers: 3, Seed: 29, Pipelined: true}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sets) {
		t.Fatalf("%d results for %d sets", len(results), len(sets))
	}
	sawLoss := false
	for _, r := range results {
		if r.Loss >= 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("no pipelined episode produced a training loss")
	}
	if m.Agent.ReplaySize() == 0 {
		t.Fatal("replay buffer empty after pipelined training")
	}
}

// The scalar-RL adapter supports pipelined mode with the same determinism
// guarantee.
func TestPipelinedScalarRLDeterminism(t *testing.T) {
	run := func() ([]core.EpisodeResult, float64) {
		sys := testSystem()
		sets := testSets(sys, 5, 20, 53)
		cfg := rl.DefaultConfig()
		cfg.Window = 6
		cfg.Seed = 7
		agent := rl.New(sys, cfg)
		l := NewScalarRLLearner(agent, core.TrainConfig{System: sys, MaxEventsPerEpisode: 4000})
		results, err := Train(l, Config{Workers: 2, Seed: 59, Pipelined: true}, sets)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, r := range results {
			sum += r.Loss
		}
		return results, sum
	}
	r1, s1 := run()
	r2, s2 := run()
	if !resultsEqual(r1, r2) || s1 != s2 {
		t.Fatal("pipelined scalar RL: fixed (seed, workers) not reproducible")
	}
}

// AfterEpisode still observes every episode in order, and its errors abort
// the run with partial results — with the in-flight round joined first.
func TestPipelinedAfterEpisodeOrdering(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 5, 20, 47)
	m := testAgent(sys, 21)
	var seen []int
	cfg := Config{Workers: 2, Seed: 31, Pipelined: true, AfterEpisode: func(i int, r core.EpisodeResult) error {
		seen = append(seen, i)
		return nil
	}}
	if _, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(sets) {
		t.Fatalf("hook ran %d times for %d sets", len(seen), len(sets))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("hook order %v", seen)
		}
	}

	m2 := testAgent(sys, 21)
	stop := errors.New("stop")
	cfg.AfterEpisode = func(i int, r core.EpisodeResult) error {
		if i == 2 {
			return stop
		}
		return nil
	}
	results, err := Train(NewMRSchLearner(m2, trainCfg(sys)), cfg, sets)
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results before abort, want 3", len(results))
	}
}

// barrierOnlyLearner implements Learner but not SnapshotLearner.
type barrierOnlyLearner struct{ l Learner }

func (b *barrierOnlyLearner) Spawn() (Actor, bool) { return b.l.Spawn() }
func (b *barrierOnlyLearner) Reduce(ep Episode, tr Transcript) (core.EpisodeResult, error) {
	return b.l.Reduce(ep, tr)
}

// Requesting pipelined mode from a learner that cannot snapshot its weights
// is a clear error, never a silent fall back to barrier collection.
func TestPipelinedRequiresSnapshotLearner(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 3, 15, 61)
	m := testAgent(sys, 25)
	l := &barrierOnlyLearner{l: NewMRSchLearner(m, trainCfg(sys))}
	_, err := Train(l, Config{Workers: 2, Seed: 67, Pipelined: true}, sets)
	if err == nil {
		t.Fatal("pipelined Train accepted a non-snapshot learner")
	}
	if !strings.Contains(err.Error(), "Pipelined") {
		t.Fatalf("error %q does not name the Pipelined requirement", err)
	}
}

// An empty set list is a no-op in pipelined mode too.
func TestPipelinedEmptySets(t *testing.T) {
	sys := testSystem()
	m := testAgent(sys, 27)
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), Config{Workers: 2, Seed: 71, Pipelined: true}, nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("results %v, err %v", results, err)
	}
}

// The pipelined schedule publishes once per round boundary and hands every
// episode to Reduce in order — verified through a probe learner that records
// the call sequence (rollouts themselves are trivial).
type probeLearner struct {
	published int
	reduced   []int
}

type probeActor struct{}

func (probeActor) Rollout(ep Episode) (Transcript, error) { return ep.Index, nil }

func (p *probeLearner) Spawn() (Actor, bool) { return probeActor{}, true }
func (p *probeLearner) SpawnSnapshot() Actor { return probeActor{} }
func (p *probeLearner) Publish()             { p.published++ }
func (p *probeLearner) Reduce(ep Episode, tr Transcript) (core.EpisodeResult, error) {
	if tr.(int) != ep.Index {
		return core.EpisodeResult{}, errors.New("transcript/episode mismatch")
	}
	p.reduced = append(p.reduced, ep.Index)
	return core.EpisodeResult{Set: ep.Set.Kind}, nil
}

func TestPipelinedScheduleShape(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 7, 5, 73) // 7 episodes, workers=3 -> rounds of 3,3,1
	p := &probeLearner{}
	results, err := Train(p, Config{Workers: 3, Seed: 79, Pipelined: true}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("%d results", len(results))
	}
	for i, idx := range p.reduced {
		if idx != i {
			t.Fatalf("reduce order %v", p.reduced)
		}
	}
	// One initial publish plus one per round boundary between the 3 rounds.
	if p.published != 3 {
		t.Fatalf("published %d times, want 3 (initial + 2 boundaries)", p.published)
	}
}

// TestBurstTelemetryIsPerStepAndObserveOnly: an episode's gradient steps run
// as one dfp burst — here on three training workers, with two snapshot
// actors rolling out on the same CPUs — and the harness still records one
// dfp_train_step_ns sample per step, not per burst, and one sample of each
// step phase, while training the weights an uninstrumented run trains.
func TestBurstTelemetryIsPerStepAndObserveOnly(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 6, 25, 41)
	train := func(reg *telemetry.Registry) []byte {
		m := testAgentWorkers(sys, 17, 3)
		cfg := Config{Workers: 2, Seed: 23, Pipelined: true, Metrics: reg}
		if _, err := Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets); err != nil {
			t.Fatal(err)
		}
		return weightsOf(t, m)
	}
	reg := telemetry.NewRegistry()
	if !bytes.Equal(train(reg), train(nil)) {
		t.Fatal("an instrumented run trained different weights")
	}
	// The step histogram and the four that split a step over worker 0's
	// phases: one sample each per gradient step, and phases that ran (a wait
	// may round to nothing, a shard, a fold and an Adam range cannot).
	want := uint64(len(sets) * trainCfg(sys).StepsPerEpisode)
	seen := map[string]telemetry.HistogramValue{}
	for _, h := range reg.Snapshot().Histograms {
		seen[h.Name] = h
	}
	for _, name := range append([]string{"dfp_train_step_ns"}, stepPhaseNames[:]...) {
		h, ok := seen[name]
		if !ok {
			t.Fatalf("no %s histogram was registered", name)
		}
		if h.Count != want {
			t.Fatalf("%s has %d samples, want one per gradient step: %d", name, h.Count, want)
		}
		if name != "dfp_step_wait_ns" && h.Mean <= 0 {
			t.Fatalf("%s recorded no time over %d steps", name, h.Count)
		}
	}
}
