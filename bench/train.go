package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rollout"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// trainRollout is one complete curriculum training per op: a fresh agent,
// every episode collected through the rollout harness (one worker, barrier
// mode) and reduced by its gradient steps. Training is deterministic, so
// every op's saved weights must hash to the first op's.
type trainRollout struct {
	cfg config

	m    *experiments.Materials
	want string
	last *core.MRSch // the most recent model, kept alive for live_heap_mb
}

// weightsDigest hashes what agent.Save writes.
func weightsDigest(agent *core.MRSch) (string, error) {
	h := sha256.New()
	if err := agent.Save(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16]), nil
}

func (t *trainRollout) setup() error {
	var err error
	if t.m, err = experiments.Prepare(t.cfg.scale()); err != nil {
		return err
	}
	t.want, err = t.train() // warm-up op, and the reference weights
	return err
}

func (t *trainRollout) teardown() { t.m, t.last = nil, nil }

func (t *trainRollout) cycle() int { return 1 }

func (t *trainRollout) train() (string, error) {
	agent, _, err := experiments.TrainMRSch(t.m, "S4", false)
	if err != nil {
		return "", err
	}
	t.last = agent
	return weightsDigest(agent)
}

func (t *trainRollout) op(int) error {
	d, err := t.train()
	if err != nil {
		return err
	}
	if d != t.want {
		return fmt.Errorf("trained weights digest %s, first training gave %s", d, t.want)
	}
	return nil
}

// tracedLearner wraps the rollout harness's learner with a span around every
// episode collection and every reduction; it forwards the Instrumented
// extension so the harness's registry still reaches the real learner.
type tracedLearner struct {
	inner rollout.Learner
	rec   *recorder
	root  int
	op    int
}

func (l *tracedLearner) Instrument(reg *telemetry.Registry) {
	if il, ok := l.inner.(rollout.Instrumented); ok {
		il.Instrument(reg)
	}
}

func (l *tracedLearner) Spawn() (rollout.Actor, bool) {
	a, parallel := l.inner.Spawn()
	return &tracedActor{inner: a, l: l}, parallel
}

func (l *tracedLearner) Reduce(ep rollout.Episode, tr rollout.Transcript) (res core.EpisodeResult, err error) {
	l.rec.time("rollout.reduce", l.root, l.op, func() { res, err = l.inner.Reduce(ep, tr) })
	return res, err
}

type tracedActor struct {
	inner rollout.Actor
	l     *tracedLearner
}

func (a *tracedActor) Rollout(ep rollout.Episode) (tr rollout.Transcript, err error) {
	a.l.rec.time("rollout.collect", a.l.root, a.l.op, func() { tr, err = a.inner.Rollout(ep) })
	return tr, err
}

// replicaTrain is experiments.TrainMRSch rebuilt from its public pieces —
// the untrained campaign-architecture agent, the sampled→real→synthetic
// curriculum, the rollout harness at one worker — with the learner traced
// and a registry collecting the harness's per-gradient-step histogram.
func (t *trainRollout) replicaTrain(rec *recorder, op int, reg *telemetry.Registry) (string, error) {
	sc := t.m.Scale
	agent := experiments.NewMRSchUntrained(sc, false)
	order := experiments.Ordering{core.Sampled, core.Real, core.Synthetic}
	sets := order.Sets(t.m.CurriculumSets("S4"))
	root := rec.open("rollout.train", -1, op)
	learner := &tracedLearner{
		inner: rollout.NewMRSchLearner(agent, core.TrainConfig{System: sc.System(), StepsPerEpisode: sc.StepsPerEpisode}),
		rec:   rec, root: root, op: op,
	}
	_, err := rollout.Train(learner, rollout.Config{Workers: 1, Seed: sc.Seed + 7, Metrics: reg}, sets)
	rec.close(root)
	if err != nil {
		return "", err
	}
	t.last = agent
	return weightsDigest(agent)
}

func (t *trainRollout) trace(rec *recorder, ref window) (map[string]float64, error) {
	reg := telemetry.NewRegistry()
	var opUs []float64
	for op := 0; op < traceCycles; op++ {
		rec.attempted++
		t0 := time.Now()
		d, err := t.replicaTrain(rec, op, reg)
		dt := time.Since(t0)
		// Faithful replica: it trains the very weights TrainMRSch does.
		if err != nil || d != t.want {
			rec.failed++
			fmt.Fprintf(t.cfg.log, "%s: replica training gave weights %s, TrainMRSch %s (err %v)\n", t.cfg.workload, d, t.want, err)
			continue
		}
		opUs = append(opUs, micros(int64(dt)))
	}
	if len(opUs) == 0 {
		return nil, fmt.Errorf("no replica training matched TrainMRSch")
	}

	var stepUs, stepTotalUs, steps float64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "dfp_train_step_ns" {
			stepUs = micros(h.P50)
			stepTotalUs = h.Mean * float64(h.Count) / 1e3
			steps = float64(h.Count)
		}
	}
	collect := rec.durationsUs("rollout.collect")
	ops := float64(rec.attempted)
	episodes := float64(len(collect)) / ops
	opTotalUs := sum(rec.durationsUs("rollout.train"))
	stepShare := stepTotalUs / opTotalUs
	layers := map[string]float64{
		"dfp.train_step_us":              stepUs,
		"dfp.train_steps_per_op":         steps / ops,
		"dfp.train_step_share":           stepShare,
		"rollout.collect_us_per_episode": median(collect),
		"rollout.other_share":            1 - stepShare - sum(collect)/opTotalUs,
		"rollout.episodes_per_s":         episodes / (median(opUs) / 1e6),
		"dfp.grad_steps_per_s":           steps / ops / (median(opUs) / 1e6),
		"rollout.allocs_per_episode":     float64(ref.mem1.Mallocs-ref.mem0.Mallocs) / float64(ref.attempted) / episodes,
		"trace.overhead_ratio":           lowest(opUs) / ref.p50(), // like for like: the least disturbed op of each
	}

	// The read side on the trained model: greedy Act on the S4 decision
	// instants, outside the simulator.
	sc := t.m.Scale
	reqs, err := serve.SampleRequests(sc.System(), t.m.Workload("S4"), sc.Window, 512)
	if err != nil {
		return nil, err
	}
	p, err := replicatePicker(t.last, sc.System(), sc.Window, reqs)
	if err != nil {
		return nil, err
	}
	layers["dfp.act_us"] = p.forwardUs
	setupLayers(sc, rec, layers)
	return layers, nil
}
