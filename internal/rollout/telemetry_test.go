package rollout

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// rollout_episodes_per_sec is a rate over the run: the episodes this process
// ran over the wall time since its first round began, not one over the last
// round's time. The durations are injected where the harness reads its clock.
func TestEpisodesPerSecIsARunRate(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newRolloutMetrics(nil, Config{Metrics: reg})
	gauge := reg.Gauge("rollout_episodes_per_sec")
	// Rounds of 1 s, 1 s and 2 s: 3 episodes in 4 s, where the last round
	// alone reads 0.5.
	for i, elapsed := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		m.roundDone(nil, i+1, i+1, elapsed)
	}
	if got := gauge.Value(); got != 0.75 {
		t.Fatalf("3 episodes in 4 s read %g episodes/s, want 0.75", got)
	}
	// A run resumed at episode 10 counts the episodes it ran itself: 2 by
	// its 12th boundary, in 500 ms.
	m.roundDone(nil, 12, 2, 500*time.Millisecond)
	if got := gauge.Value(); got != 4 {
		t.Fatalf("2 episodes in 0.5 s read %g episodes/s, want 4", got)
	}
	// An untimed boundary leaves the gauge as it was.
	m.roundDone(nil, 13, 3, 0)
	if got := gauge.Value(); got != 4 {
		t.Fatalf("an untimed boundary moved the gauge to %g", got)
	}
}
