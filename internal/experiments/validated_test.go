package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// trainValidated is the training run mrsch-train -validate makes.
func trainValidated(m *Materials, name string, opt CampaignOptions) (*core.MRSch, []core.EpisodeResult, core.ValidationMetrics, error) {
	t, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: name, Validate: true}, opt)
	return t.MRSch, t.Episodes, t.Best, err
}

func TestTrainMRSchValidatedSelectsModel(t *testing.T) {
	m := MustPrepare(tinyScale())
	agent, results, best, err := trainValidated(m, "S2", CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3*tinyScale().SetsPerKind {
		t.Fatalf("%d episodes", len(results))
	}
	if best.Score <= 0 || best.Score > 1 {
		t.Fatalf("validation score %v", best.Score)
	}
	// The selected agent must still schedule the test workload.
	rep, err := Evaluate(m.Scale.System(), agent.Model().Evaluator().Policy(), m.Workload("S2"), MethodMRSch, "S2", -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 {
		t.Fatal("selected agent completed nothing")
	}
}

// Crash-resume equivalence for validated training: the round checkpoints
// carry the §IV-A selection state, so a run resumed from a mid-run
// checkpoint finishes with the same final weights AND the same best
// validation metrics as a run that was never interrupted — including a best
// model found before the interruption point.
func TestValidatedTrainCheckpointResumeEquivalence(t *testing.T) {
	sc := tinyScale()
	opt := CampaignOptions{Workers: 2}

	// Uninterrupted reference, no checkpointing.
	refAgent, refResults, refBest, err := trainValidated(MustPrepare(sc), "S2", opt)
	if err != nil {
		t.Fatal(err)
	}
	total := len(refResults)
	if total < 2 {
		t.Fatalf("reference run trained %d episodes, too few to interrupt", total)
	}
	var refWeights bytes.Buffer
	if err := refAgent.Save(&refWeights); err != nil {
		t.Fatal(err)
	}

	// Checkpointed run: stash a copy of the checkpoint file as it stood at
	// the first mid-run round boundary — the state a crash right after that
	// round would leave behind. Boundaries fall on round edges (a multiple
	// of the worker count), so the test discovers the boundary instead of
	// hardcoding one.
	dir := t.TempDir()
	crashDir := t.TempDir()
	at := 0
	ckpt := opt
	ckpt.CheckpointDir = dir
	ckpt.OnCheckpoint = func(action string, episodes int) {
		if action != "save" || at != 0 || episodes == 0 || episodes >= total {
			return
		}
		at = episodes
		files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		if err != nil || len(files) != 1 {
			t.Errorf("mid-run checkpoint: glob %v err %v", files, err)
			return
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Error(err)
			return
		}
		if err := os.WriteFile(filepath.Join(crashDir, filepath.Base(files[0])), data, 0o644); err != nil {
			t.Error(err)
		}
	}
	ckptAgent, _, ckptBest, err := trainValidated(MustPrepare(sc), "S2", ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint writes are pure observers: the checkpointed run must match
	// the reference bitwise.
	var ckptWeights bytes.Buffer
	if err := ckptAgent.Save(&ckptWeights); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refWeights.Bytes(), ckptWeights.Bytes()) {
		t.Fatal("checkpointed run weights differ from the uncheckpointed reference")
	}
	if !reflect.DeepEqual(refBest, ckptBest) {
		t.Fatalf("checkpointed run best %+v, reference %+v", ckptBest, refBest)
	}
	if entries, _ := filepath.Glob(filepath.Join(crashDir, "*.ckpt")); at == 0 || len(entries) != 1 {
		t.Fatalf("no mid-run checkpoint captured (boundary %d, %d file(s))", at, len(entries))
	}

	// Resume from the crash point and finish the run.
	res := opt
	res.CheckpointDir = crashDir
	res.Resume = true
	resumedAt := -1
	res.OnCheckpoint = func(action string, episodes int) {
		if action == "resume" {
			resumedAt = episodes
		}
	}
	resAgent, resResults, resBest, err := trainValidated(MustPrepare(sc), "S2", res)
	if err != nil {
		t.Fatal(err)
	}
	if resumedAt != at {
		t.Fatalf("resumed at boundary %d, want %d", resumedAt, at)
	}
	if len(resResults) != total-at {
		t.Fatalf("resumed run trained %d episodes, want the %d-episode tail", len(resResults), total-at)
	}
	var resWeights bytes.Buffer
	if err := resAgent.Save(&resWeights); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refWeights.Bytes(), resWeights.Bytes()) {
		t.Fatal("resumed run final weights differ from the uninterrupted reference")
	}
	if !reflect.DeepEqual(refBest, resBest) {
		t.Fatalf("resumed run best %+v, reference %+v", resBest, refBest)
	}
}

// A finished validated run resumed against its own checkpoint trains zero
// episodes and still reports the recorded best — the selection state
// (metrics and weight snapshot) round-trips through the checkpoint file.
func TestValidatedTrainResumeFinishedRunKeepsSelection(t *testing.T) {
	sc := tinyScale()
	opt := CampaignOptions{Workers: 1, CheckpointDir: t.TempDir()}
	agent1, results1, best1, err := trainValidated(MustPrepare(sc), "S2", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results1) == 0 || best1.Score == 0 {
		t.Fatalf("degenerate first run: %d episodes, best %+v", len(results1), best1)
	}

	opt.Resume = true
	agent2, results2, best2, err := trainValidated(MustPrepare(sc), "S2", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results2) != 0 {
		t.Fatalf("resumed finished run trained %d episodes, want 0", len(results2))
	}
	if !reflect.DeepEqual(best1, best2) {
		t.Fatalf("selection state lost across resume: best %+v, want %+v", best2, best1)
	}
	var w1, w2 bytes.Buffer
	if err := agent1.Save(&w1); err != nil {
		t.Fatal(err)
	}
	if err := agent2.Save(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("resumed weights differ from the run that wrote the checkpoint")
	}
}

func TestValidationWorkloadDistinctFromTest(t *testing.T) {
	sc := tinyScale()
	sc.TraceDuration = 0.8 * 86400 // long enough for a non-degenerate split
	m := MustPrepare(sc)
	valid, err := m.ValidationWorkload("S1")
	if err != nil {
		t.Fatal(err)
	}
	test := m.Workload("S1")
	if len(valid) == 0 || len(test) == 0 {
		t.Fatalf("empty split: valid=%d test=%d", len(valid), len(test))
	}
	if len(m.Valid) >= len(m.Train) {
		t.Fatalf("validation split (%d) should be much smaller than training (%d)",
			len(m.Valid), len(m.Train))
	}
}
