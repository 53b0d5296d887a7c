package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/scenario"
)

// PruneModelStore: entries reachable from the builtin campaign envelope
// survive, orphans — a retired revision's entries among them — go, and
// nothing that isn't a *.model file is touched.
func TestPruneModelStore(t *testing.T) {
	store := t.TempDir()
	sp, err := scenario.ByName("S2")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "prune-test",
		Scale:     scenario.TinyScaleSpec(),
		Scenarios: []scenario.ScenarioSpec{sp},
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindMRSch, Train: true}},
	}
	r, err := OpenCampaign(spec, CampaignOptions{Workers: 1, ModelDir: store})
	if err != nil {
		t.Fatal(err)
	}
	cell := r.Cells()[0]
	live := filepath.Base(r.storePath(cell))

	// A store filled before model files were sealed holds a gob model under
	// its revision-v2 name. The campaign does not load it — its entry has
	// another name now — but trains afresh, and prune removes the old entry.
	scaleJSON, _ := json.Marshal(spec.Scale)
	content := fmt.Sprintf("v2|%s|scale=%s|workers=1|pipelined=false", r.modelKey(cell), scaleJSON)
	gobModel := fmt.Sprintf("%s-%s-%s.model", cell.Method.Kind, sanitizeName(cell.Scenario.FamilyName()), modelStoreKeyHash(content))
	if gobModel == live {
		t.Fatal("the v2 and v3 store names collide")
	}
	var gobFile bytes.Buffer
	if err := gob.NewEncoder(&gobFile).Encode(struct{ Magic string }{"mrsch-nn-weights-v1"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store, gobModel), gobFile.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	actions := map[string]int{}
	opt := CampaignOptions{Workers: 1, ModelDir: store, OnModel: func(_, action, _ string) { actions[action]++ }}
	if _, err := RunCampaign(spec, opt); err != nil {
		t.Fatal(err)
	}
	if actions["trained"] != 1 || actions["cached"] != 0 {
		t.Fatalf("campaign over a v2 store: actions %v, want one model trained", actions)
	}
	models, err := filepath.Glob(filepath.Join(store, "*.model"))
	if err != nil || len(models) != 2 {
		t.Fatalf("campaign left %d model(s) in the store (err %v), want the v2 entry and its own", len(models), err)
	}

	// An orphan with a store-shaped name, and a bystander file the pruner
	// must never consider.
	orphan := "mrsch-S4-deadbeefdeadbeef.model"
	for _, name := range []string{orphan, "notes.txt"} {
		if err := os.WriteFile(filepath.Join(store, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	wantPruned := []string{gobModel, orphan}
	sort.Strings(wantPruned)
	kept, pruned, err := PruneModelStore(store, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned, wantPruned) {
		t.Fatalf("dry run would prune %v, want %v", pruned, wantPruned)
	}
	if len(kept) != 1 || kept[0] != live {
		t.Fatalf("dry run keeps %v, want [%s]", kept, live)
	}
	if _, err := os.Stat(filepath.Join(store, orphan)); err != nil {
		t.Fatal("dry run deleted the orphan")
	}

	if _, pruned, err = PruneModelStore(store, 1, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned, wantPruned) {
		t.Fatalf("pruned %v, want %v", pruned, wantPruned)
	}
	for _, name := range wantPruned {
		if _, err := os.Stat(filepath.Join(store, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still present after prune (err %v)", name, err)
		}
	}
	for _, name := range []string{live, "notes.txt"} {
		if _, err := os.Stat(filepath.Join(store, name)); err != nil {
			t.Fatalf("prune removed %s: %v", name, err)
		}
	}

	// A reachable store never shrinks: prune again, nothing to do.
	if _, pruned, err = PruneModelStore(store, 1, false); err != nil {
		t.Fatal(err)
	} else if len(pruned) != 0 {
		t.Fatalf("second prune removed %v", pruned)
	}
}
