package rollout

import (
	"time"

	"repro/internal/telemetry"
)

// Instrumented is an optional Learner extension: a learner that wants its
// own instruments (e.g. the MRSch adapter's dfp_train_step_ns histogram and
// replay-occupancy gauge) registers them here. Train calls it once, before
// the first rollout, whenever Config.Metrics is set.
type Instrumented interface {
	Instrument(reg *telemetry.Registry)
}

// rolloutMetrics caches the harness instruments at wire-up time. With a nil
// registry the instruments are live orphans and `timed` is false, skipping
// every clock read — rollouts, reductions, and checkpoints are identical
// either way (doc rule 11).
type rolloutMetrics struct {
	timed          bool
	episodes       *telemetry.Counter
	episodesPerSec *telemetry.Gauge
	epsilon        *telemetry.Gauge
	loss           *telemetry.Gauge
}

func newRolloutMetrics(l Learner, cfg Config) rolloutMetrics {
	if il, ok := l.(Instrumented); ok && cfg.Metrics != nil {
		il.Instrument(cfg.Metrics)
	}
	reg := cfg.Metrics
	return rolloutMetrics{
		timed:          reg != nil,
		episodes:       reg.Counter("rollout_episodes_total"),
		episodesPerSec: reg.Gauge("rollout_episodes_per_sec"),
		epsilon:        reg.Gauge("rollout_epsilon"),
		loss:           reg.Gauge("rollout_loss"),
	}
}

// episodeDone mirrors one reduced episode's result into the gauges.
func (m rolloutMetrics) episodeDone(eps, loss float64) {
	m.episodes.Inc()
	m.epsilon.Set(eps)
	if loss >= 0 {
		m.loss.Set(loss)
	}
}

// roundDone marks a round boundary (one episode): throughput gauge and one
// journal line. The gauge is a rate over the whole run in this process: ran
// episodes (after a resume, those since it) over elapsed, the wall time
// since the first round began. elapsed is zero when the harness is not
// timing (nil registry); the journal then carries only the progress field.
func (m rolloutMetrics) roundDone(j *telemetry.Journal, done, ran int, elapsed time.Duration) {
	if elapsed > 0 {
		m.episodesPerSec.Set(float64(ran) / elapsed.Seconds())
	}
	j.Event("rollout_round", "episodes_done", done)
}
