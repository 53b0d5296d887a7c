package experiments

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// Pipelined options must plumb end to end: the harness runs in pipelined
// mode (snapshot actors + publish) and training stays deterministic.
func TestTrainMRSchPipelinedDeterministic(t *testing.T) {
	run := func() ([]core.EpisodeResult, []byte) {
		m := MustPrepare(tinyScale())
		agent, results, err := trainMRSch(m, "S2", CampaignOptions{Pipelined: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := agent.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return results, buf.Bytes()
	}
	r1, w1 := run()
	r2, w2 := run()
	if len(r1) == 0 || len(r1) != len(r2) {
		t.Fatalf("result lengths %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("pipelined campaign not reproducible at episode %d: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if !bytes.Equal(w1, w2) {
		t.Fatal("pipelined campaign weights differ across runs")
	}
}

// The validated trainer composes with pipelined collection: the §IV-A
// model-selection hook runs on the reduce goroutine while only snapshot
// readers are in flight (rollout package doc, rule 8).
func TestTrainMRSchValidatedPipelined(t *testing.T) {
	m := MustPrepare(tinyScale())
	_, results, best, err := trainValidated(m, "S2", CampaignOptions{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no episodes")
	}
	if best.Score <= 0 {
		t.Fatalf("validation never scored: %+v", best)
	}
}
