package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// Training with CheckpointDir writes a checkpoint at every round boundary;
// re-running with Resume picks up the final checkpoint and finishes
// instantly with identical weights.
func TestTrainCheckpointAndResumeFinishedRun(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	var saves, resumes []int
	opt := CampaignOptions{Workers: 2, CheckpointDir: dir, OnCheckpoint: func(action string, episodes int) {
		switch action {
		case "save":
			saves = append(saves, episodes)
		case "resume":
			resumes = append(resumes, episodes)
		}
	}}

	m := MustPrepare(sc)
	agent1, results1, err := trainMRSch(m, "S4", opt)
	if err != nil {
		t.Fatal(err)
	}
	total := len(results1)
	if total == 0 {
		t.Fatal("no episodes trained")
	}
	if len(saves) == 0 || saves[len(saves)-1] != total {
		t.Fatalf("checkpoint saves %v never reached the final boundary %d", saves, total)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("checkpoint dir holds %v, want exactly one .ckpt", files)
	}

	opt.Resume = true
	m2 := MustPrepare(sc)
	agent2, results2, err := trainMRSch(m2, "S4", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results2) != 0 {
		t.Fatalf("resumed finished run trained %d episodes, want 0", len(results2))
	}
	if len(resumes) != 1 || resumes[0] != total {
		t.Fatalf("resume events %v, want [%d]", resumes, total)
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

// A checkpoint written under one (workers, pipelined) setting refuses to
// resume under another — silently continuing would break the bitwise
// contract.
func TestTrainResumeRejectsSettingsDrift(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	m := MustPrepare(sc)
	opt := CampaignOptions{Workers: 2, CheckpointDir: dir}
	if _, _, err := trainMRSch(m, "S4", opt); err != nil {
		t.Fatal(err)
	}

	drift := opt
	drift.Workers = 1
	drift.Resume = true
	if _, _, err := trainMRSch(m, "S4", drift); err == nil || !strings.Contains(err.Error(), "rollout workers") {
		t.Fatalf("worker drift: want a rollout-workers error, got %v", err)
	}

	drift = opt
	drift.Pipelined = true
	drift.Resume = true
	if _, _, err := trainMRSch(m, "S4", drift); err == nil || !strings.Contains(err.Error(), "pipelined") {
		t.Fatalf("mode drift: want a pipelined error, got %v", err)
	}

	// A curriculum edit that keeps the episode count (SetsPerKind) but
	// changes every job set maps to a different per-spec checkpoint file:
	// the edited run must start fresh (full episode stream, no resume)
	// instead of resuming old-curriculum state — Total, Workers, Seed,
	// and the network dims all still match here, so only the spec hash
	// separates the two runs.
	edited := sc
	edited.SetSize = sc.SetSize + 5
	drift = opt
	drift.Resume = true
	resumed := false
	drift.OnCheckpoint = func(action string, _ int) { resumed = resumed || action == "resume" }
	_, results, err := trainMRSch(MustPrepare(edited), "S4", drift)
	if err != nil {
		t.Fatalf("curriculum drift: edited spec must start fresh, got %v", err)
	}
	if resumed || len(results) == 0 {
		t.Fatalf("curriculum drift: run resumed foreign state (resumed=%v, %d episodes)", resumed, len(results))
	}
}

// A campaign whose cells train several models of one family — here a seed
// axis — must give each its own checkpoint file: launching with
// -checkpoint -resume from the very first run may not trip over a
// sibling's state.
func TestCampaignSeedAxisWithCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	base, err := scenario.ByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "seeded-ckpt",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{base},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindMRSch, Train: true}},
		Seeds:     []int64{21, 22},
	}
	opt := CampaignOptions{Workers: 2, ModelDir: dir, CheckpointDir: dir, Resume: true}
	first, err := RunCampaign(spec, opt)
	if err != nil {
		t.Fatalf("first seeded run with -checkpoint -resume: %v", err)
	}
	if len(first) != 2 {
		t.Fatalf("%d cells, want 2", len(first))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 2 {
		t.Fatalf("checkpoint files %v, want one per seed replicate", files)
	}
	second, err := RunCampaign(spec, opt)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Report, second[i].Report) {
			t.Fatalf("cell %d drifted across the checkpointed re-run", i)
		}
	}
}

// Power families train with the MLP state module regardless of the
// method's cnn flag (Train); the store's load path must mirror
// that, or a finished power+cnn campaign cannot be re-run.
func TestCampaignModelStorePowerCNNReload(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	power, err := scenario.ByName("S6")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "power-cnn-store",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{power},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindMRSch, Train: true, CNN: true}},
	}
	opt := CampaignOptions{Workers: 2, ModelDir: dir}
	first, err := RunCampaign(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	opt.OnModel = func(_, action, _ string) {
		if action == "cached" {
			cached++
		}
	}
	second, err := RunCampaign(spec, opt)
	if err != nil {
		t.Fatalf("re-run of a finished power+cnn campaign: %v", err)
	}
	if cached != 1 {
		t.Fatalf("re-run cached %d models, want 1", cached)
	}
	if !reflect.DeepEqual(first[0].Report, second[0].Report) {
		t.Fatal("cached power model produced a different report")
	}
}

// CheckpointEvery throttles writes to every Nth round boundary but always
// writes the final one.
func TestCheckpointEveryThrottles(t *testing.T) {
	var saves []int
	opt := CampaignOptions{Workers: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 2, OnCheckpoint: func(action string, episodes int) {
		if action == "save" {
			saves = append(saves, episodes)
		}
	}}
	_, results, err := trainMRSch(MustPrepare(tinyScale()), "S4", opt)
	if err != nil {
		t.Fatal(err)
	}
	total := len(results)
	if len(saves) == 0 || saves[len(saves)-1] != total {
		t.Fatalf("saves %v must end at the final boundary %d", saves, total)
	}
	// Round width 2 over `total` episodes: boundaries at 2, 4, ..., total;
	// every=2 keeps the even-numbered boundaries plus the final one.
	var want []int
	for b, i := 2, 1; b <= total; b, i = b+2, i+1 {
		if i%2 == 0 || b == total {
			want = append(want, b)
		}
	}
	if !reflect.DeepEqual(saves, want) {
		t.Fatalf("throttled saves %v, want %v", saves, want)
	}
}

// The campaign model store: the first run trains and stores one model per
// (family, method kind); a re-run of the identical campaign loads every
// model from the store and retrains nothing, producing identical reports.
func TestCampaignModelStoreSkipsRetraining(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	base, err := scenario.ByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	variant, err := scenario.ByName("S4@wtn=0.5")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "store-smoke",
		Scale:     sc.ScaleSpec,
		Scenarios: []scenario.ScenarioSpec{base, variant},
		Methods: []scenario.MethodSpec{
			{Kind: scenario.KindMRSch, Train: true},
			{Kind: scenario.KindScalarRL, Train: true},
		},
	}
	run := func() ([]CellResult, map[string]int, []string) {
		actions := map[string]int{}
		var stored []string
		results, err := RunCampaign(spec, CampaignOptions{
			Workers:  2,
			ModelDir: dir,
			OnModel: func(family, action, path string) {
				actions[action]++
				if path != "" {
					stored = append(stored, path)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return results, actions, stored
	}

	first, actions1, stored1 := run()
	if actions1["trained"] != 2 || actions1["cached"] != 0 {
		t.Fatalf("first run actions %v, want 2 trained / 0 cached", actions1)
	}
	for _, p := range stored1 {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("stored model %s missing: %v", p, err)
		}
	}

	second, actions2, _ := run()
	if actions2["trained"] != 0 || actions2["cached"] != 2 {
		t.Fatalf("re-run actions %v, want 0 trained / 2 cached (the store must skip retraining)", actions2)
	}
	if len(first) != len(second) {
		t.Fatalf("cell counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Report, second[i].Report) {
			t.Fatalf("cell %d: cached-model report differs from trained-model report", i)
		}
	}

	// Different training settings must hash to different store entries:
	// a pipelined re-run may not load barrier-trained weights.
	actions3 := map[string]int{}
	if _, err := RunCampaign(spec, CampaignOptions{
		Workers: 2, Pipelined: true, ModelDir: dir,
		OnModel: func(_, action, _ string) { actions3[action]++ },
	}); err != nil {
		t.Fatal(err)
	}
	if actions3["cached"] != 0 || actions3["trained"] != 2 {
		t.Fatalf("pipelined re-run actions %v, want fresh training (store keys must cover the training mode)", actions3)
	}

	// So must the key's revision: what a commit from before the one-ring
	// replay (content "v1|…") or before the sealed model file ("v2|…") stored
	// is another file name, so it is retrained, never loaded.
	r, err := OpenCampaign(spec, CampaignOptions{Workers: 2, Pipelined: true, ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cell := r.Cells()[0]
	scaleJSON, _ := json.Marshal(spec.Scale)
	content := fmt.Sprintf("|%s|scale=%s|workers=2|pipelined=true", r.modelKey(cell), scaleJSON)
	got := r.storePath(cell)
	if !strings.Contains(got, modelStoreKeyHash("v3"+content)) {
		t.Fatalf("store path %s is not keyed on revision v3 of %q", got, content)
	}
	for _, old := range []string{"v1", "v2"} {
		if strings.Contains(got, modelStoreKeyHash(old+content)) {
			t.Fatalf("store path %s is keyed on the retired revision %s", got, old)
		}
	}
}

// A bare file name — what -checkpoint . makes of a checkpoint path — keeps
// its temp file beside the target, never in $TMPDIR: a rename from there
// would cross filesystems when /tmp is another mount. A $TMPDIR that does not
// exist makes any use of it fail.
func TestWriteFileAtomicBareName(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
	if err := writeFileAtomic("x", []byte("state")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "x" {
		t.Fatalf("directory holds %v, want only x", entries)
	}
	if data, err := os.ReadFile("x"); err != nil || string(data) != "state" {
		t.Fatalf("x holds %q (%v), want \"state\"", data, err)
	}
}
