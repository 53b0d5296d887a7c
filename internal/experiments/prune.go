package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// Model-store garbage collection. The store is content-addressed — every
// entry's name hashes the campaign settings its weights are a function of —
// so entries orphaned by spec changes (a retuned scale, a renamed family, a
// different training mode) accumulate silently. PruneModelStore removes the
// entries no builtin campaign can address anymore.
//
// The keep-set is deliberately conservative: it enumerates every builtin
// campaign at every builtin scale, with the trained-method axis (mrsch,
// mrsch+cnn, scalar-rl) added to each campaign's method list, under both
// training modes. Entries keyed by
// anything outside that envelope — a custom spec file, a -seed override, a
// hand-edited scale — are reported as prunable, which is why -dry-run
// exists and should be run first when a store mixes builtin and custom
// campaigns.

// trainedMethodVariants are the method specs a user can add to a builtin
// campaign to train models into the store.
func trainedMethodVariants() []scenario.MethodSpec {
	return []scenario.MethodSpec{
		{Kind: scenario.KindMRSch, Train: true},
		{Kind: scenario.KindMRSch, Train: true, CNN: true},
		{Kind: scenario.KindScalarRL, Train: true},
	}
}

// builtinScaleSpecs enumerates the named sizings builtin campaigns run at.
func builtinScaleSpecs() []scenario.ScaleSpec {
	return []scenario.ScaleSpec{
		scenario.QuickScaleSpec(),
		scenario.StandardScaleSpec(),
		scenario.TinyScaleSpec(),
	}
}

// PruneKeepSet computes the set of store file names (base names) reachable
// from the builtin-campaign envelope for a store rooted at dir.
func PruneKeepSet(dir string) (map[string]bool, error) {
	keep := make(map[string]bool)
	for _, scale := range builtinScaleSpecs() {
		for _, spec := range scenario.BuiltinCampaigns(scale) {
			spec.Methods = append(append([]scenario.MethodSpec{}, spec.Methods...), trainedMethodVariants()...)
			for _, pipelined := range []bool{false, true} {
				run, err := OpenCampaign(spec, CampaignOptions{Pipelined: pipelined, ModelDir: dir})
				if err != nil {
					return nil, fmt.Errorf("experiments: prune keep-set: %w", err)
				}
				for _, cell := range run.Cells() {
					if !cell.Method.Kind.Trained() || cell.Method.Model != "" {
						continue
					}
					if p := run.storePath(cell); p != "" {
						keep[filepath.Base(p)] = true
					}
				}
			}
		}
	}
	return keep, nil
}

// PruneModelStore partitions dir's *.model entries into kept and prunable
// by the builtin-campaign keep-set and, unless dryRun is set, deletes the
// prunable ones. Non-store files (checkpoint manifests, anything not
// *.model) are never touched. Both lists come back sorted.
func PruneModelStore(dir string, dryRun bool) (kept, pruned []string, err error) {
	keep, err := PruneKeepSet(dir)
	if err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: prune: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".model") {
			continue
		}
		if keep[name] {
			kept = append(kept, name)
			continue
		}
		if !dryRun {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return kept, pruned, fmt.Errorf("experiments: prune %s: %w", name, err)
			}
		}
		pruned = append(pruned, name)
	}
	sort.Strings(kept)
	sort.Strings(pruned)
	return kept, pruned, nil
}
