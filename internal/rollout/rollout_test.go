package rollout

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/job"
	"repro/internal/rl"
	"repro/internal/workload"
)

// TrainSerial is the serial reference: one actor, one inline loop, no
// goroutines or round structure, with the same per-episode seed derivation
// as Train. Train in barrier mode must produce an identical result stream and
// identical final weights — the property the determinism tests below pin,
// mirroring TrainStepReference's role for dfp's batched engine.
func TrainSerial(l Learner, cfg Config, sets []core.JobSet) ([]core.EpisodeResult, error) {
	actor, _ := l.Spawn()
	results := make([]core.EpisodeResult, 0, len(sets))
	for i := range sets {
		ep := episodeAt(cfg, sets, i)
		tr, err := actor.Rollout(ep)
		if err != nil {
			return results, fmt.Errorf("rollout: episode %d (%s): %w", i, sets[i].Kind, err)
		}
		r, err := l.Reduce(ep, tr)
		if err != nil {
			return results, fmt.Errorf("rollout: reduce episode %d (%s): %w", i, sets[i].Kind, err)
		}
		results = append(results, r)
		if cfg.AfterEpisode != nil {
			if err := cfg.AfterEpisode(i, r); err != nil {
				return results, err
			}
		}
	}
	return results, nil
}

// testSystem is a small two-resource machine.
func testSystem() cluster.Config {
	return workload.ThetaScaled(64)
}

// testSets builds nsets deterministic job sets over the test system.
func testSets(sys cluster.Config, nsets, size int, seed int64) []core.JobSet {
	base := workload.GenerateBase(workload.GeneratorConfig{
		System:           sys,
		Duration:         0.4 * 86400,
		MeanInterarrival: 150,
		Seed:             seed,
	})
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], seed+1)
	sc, err := workload.ScenarioByName("S2")
	if err != nil {
		panic(err)
	}
	raw := workload.SampledSets(base, nsets, size, seed+2)
	sets := make([]core.JobSet, 0, nsets)
	for i, jobs := range raw {
		sets = append(sets, core.JobSet{
			Kind: core.Sampled,
			Jobs: workload.Apply(jobs, pool, sc, sys, seed+3+int64(i)),
		})
	}
	return sets
}

// testAgent builds a small MRSch agent.
func testAgent(sys cluster.Config, seed int64) *core.MRSch {
	return core.New(sys, core.Options{
		Window: 6,
		Seed:   seed,
		Mutate: func(c *dfp.Config) {
			c.StateHidden = []int{24}
			c.StateOut = 12
			c.ModuleHidden = 8
			c.StreamHidden = 12
			c.Offsets = []int{1, 2, 4}
			c.TemporalWeights = []float64{0, 0.5, 1}
			c.EpsDecay = 0.8
		},
	})
}

func trainCfg(sys cluster.Config) core.TrainConfig {
	return core.TrainConfig{System: sys, StepsPerEpisode: 4, MaxEventsPerEpisode: 4000}
}

func weightsOf(t *testing.T, m *core.MRSch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runTrain trains the test agent with Config.Workers set to workers, through
// Train or the serial reference.
func runTrain(t *testing.T, workers int, serial bool) ([]core.EpisodeResult, []byte) {
	t.Helper()
	sys := testSystem()
	sets := testSets(sys, 6, 25, 41)
	m := testAgent(sys, 17)
	cfg := Config{Workers: workers, Seed: 23}
	var (
		results []core.EpisodeResult
		err     error
	)
	if serial {
		results, err = TrainSerial(NewMRSchLearner(m, trainCfg(sys)), cfg, sets)
	} else {
		results, err = Train(NewMRSchLearner(m, trainCfg(sys)), cfg, sets)
	}
	if err != nil {
		t.Fatal(err)
	}
	return results, weightsOf(t, m)
}

func resultsEqual(a, b []core.EpisodeResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Same seed ⇒ identical EpisodeResult streams and identical final weights,
// run to run, whatever Config.Workers and GOMAXPROCS say (contract rule 3).
func TestTrainDeterministicForFixedWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r0, w0 := runTrain(t, 1, false)
	for _, workers := range []int{1, 2, 3} {
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			r, w := runTrain(t, workers, false)
			if !resultsEqual(r, r0) {
				t.Fatalf("workers=%d GOMAXPROCS=%d: result stream differs:\n%v\n%v", workers, procs, r, r0)
			}
			if !bytes.Equal(w, w0) {
				t.Fatalf("workers=%d GOMAXPROCS=%d: final weights differ", workers, procs)
			}
		}
	}
}

// Barrier mode must match the retained serial reference loop exactly
// (contract rule 4).
func TestOneWorkerMatchesSerialReference(t *testing.T) {
	rp, wp := runTrain(t, 1, false)
	rs, ws := runTrain(t, 1, true)
	if !resultsEqual(rp, rs) {
		t.Fatalf("Train diverges from TrainSerial:\ntrain:  %v\nserial: %v", rp, rs)
	}
	if !bytes.Equal(wp, ws) {
		t.Fatal("Train's final weights diverge from TrainSerial")
	}
}

// Training across the harness must actually learn something usable: the
// returned results cover every set, losses are finite once the replay buffer
// fills, and the trained agent still schedules a workload to completion.
func TestTrainProducesWorkingAgent(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 6, 25, 43)
	m := testAgent(sys, 19)
	results, err := Train(NewMRSchLearner(m, trainCfg(sys)), Config{Seed: 29}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sets) {
		t.Fatalf("%d results for %d sets", len(results), len(sets))
	}
	sawLoss := false
	for i, r := range results {
		if r.Set != core.Sampled {
			t.Fatalf("episode %d kind %v", i, r.Set)
		}
		if r.Loss >= 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("no episode produced a training loss")
	}
	if m.Agent.ReplaySize() == 0 {
		t.Fatal("replay buffer empty after training")
	}
}

// AfterEpisode observes every episode, in order, with no rollouts in flight.
func TestAfterEpisodeOrdering(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 5, 20, 47)
	m := testAgent(sys, 21)
	var seen []int
	cfg := Config{Seed: 31, AfterEpisode: func(i int, r core.EpisodeResult) error {
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
	// An AfterEpisode error aborts the run with partial results.
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

// The scalar-RL adapter obeys the same contract: a fixed seed is
// reproducible whatever Config.Workers says, and Train matches the serial
// reference.
func TestScalarRLDeterminism(t *testing.T) {
	run := func(workers int, serial bool) ([]core.EpisodeResult, float64) {
		sys := testSystem()
		sets := testSets(sys, 5, 20, 53)
		cfg := rl.DefaultConfig()
		cfg.Window = 6
		cfg.Seed = 7
		agent := rl.New(sys, cfg)
		l := NewScalarRLLearner(agent, core.TrainConfig{System: sys, MaxEventsPerEpisode: 4000})
		var (
			results []core.EpisodeResult
			err     error
		)
		if serial {
			results, err = TrainSerial(l, Config{Workers: workers, Seed: 59}, sets)
		} else {
			results, err = Train(l, Config{Workers: workers, Seed: 59}, sets)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Loss-sum fingerprint: REINFORCE losses depend on every sampled
		// action and every preceding weight update, so identical sums across
		// runs mean the trajectories and update order matched. (Weight bytes
		// are compared in the MRSch variant, which has a Save API.)
		sum := 0.0
		for _, r := range results {
			sum += r.Loss
		}
		return results, sum
	}
	r1, s1 := run(1, false)
	r2, s2 := run(3, false)
	if !resultsEqual(r1, r2) || s1 != s2 {
		t.Fatal("scalar RL: a fixed seed is not reproducible across Config.Workers")
	}
	rs, ss := run(1, true)
	if !resultsEqual(r1, rs) || s1 != ss {
		t.Fatal("scalar RL: Train diverges from TrainSerial")
	}
}

// EpisodeSeed decorrelates neighbors.
func TestEpisodeSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := EpisodeSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate seed at episode %d", i)
		}
		seen[s] = true
	}
	if EpisodeSeed(1, 5) == EpisodeSeed(2, 5) {
		t.Fatal("base seed ignored")
	}
}

// MapCollect returns results in input order regardless of worker
// interleaving, and the first error by item order is the first non-nil one.
func TestMapOrderingAndErrors(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	var calls atomic.Int64
	out, errs := MapCollect(8, items, func(worker, idx int, v int) (int, error) {
		calls.Add(1)
		return v * v, nil
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 64 {
		t.Fatalf("%d calls", calls.Load())
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	_, errs = MapCollect(4, items, func(worker, idx int, v int) (int, error) {
		if v%10 == 3 {
			return 0, fmt.Errorf("boom %d", v)
		}
		return v, nil
	})
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i != 3 || errs[3].Error() != "boom 3" {
		t.Fatalf("first error at item %d (%v), want item 3", i, errs)
	}
}

// MapCollect runs every item to completion and reports per-item errors
// instead of only the first.
func TestMapCollectPerItemErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	out, errs := MapCollect(3, items, func(worker, idx int, v int) (int, error) {
		if v%2 == 1 {
			return 0, fmt.Errorf("odd %d", v)
		}
		return v * 10, nil
	})
	if len(out) != len(items) || len(errs) != len(items) {
		t.Fatalf("lengths %d/%d, want %d", len(out), len(errs), len(items))
	}
	for i, v := range items {
		if v%2 == 1 {
			if errs[i] == nil || errs[i].Error() != fmt.Sprintf("odd %d", v) {
				t.Fatalf("errs[%d] = %v", i, errs[i])
			}
		} else {
			if errs[i] != nil || out[i] != v*10 {
				t.Fatalf("item %d: out=%d err=%v", i, out[i], errs[i])
			}
		}
	}
}

// Job sets handed to the harness are never mutated: each rollout clones its
// jobs, so a set can be replayed by later episodes or other campaigns.
func TestRolloutDoesNotMutateJobSets(t *testing.T) {
	sys := testSystem()
	sets := testSets(sys, 3, 15, 61)
	snapshot := make([][]job.Job, len(sets))
	for i, set := range sets {
		for _, j := range set.Jobs {
			snapshot[i] = append(snapshot[i], *j)
		}
	}
	m := testAgent(sys, 25)
	if _, err := Train(NewMRSchLearner(m, trainCfg(sys)), Config{Seed: 67}, sets); err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		for k, j := range set.Jobs {
			if j.State != snapshot[i][k].State || j.Start != snapshot[i][k].Start {
				t.Fatalf("set %d job %d mutated: %+v vs %+v", i, k, *j, snapshot[i][k])
			}
		}
	}
}
