package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow is every declaration under internal/ that no binary, benchmark
// or example names and that stays anyway, with the reason. Anything else the
// guard finds is deleted with its tests, not added here.
var reachAllow = map[string]string{
	"CheckInvariants":  "cluster: the conservation oracle the cluster, sim and sched suites and FuzzClusterOps call after every mutation sequence",
	"NumRunning":       "cluster: what the cluster and sim oracles read the running-set size through",
	"Shadow":           "sched: the shadow computation walked afresh, what the simulator's reused walk (sim/backfill_oracle_test.go) and the property suite are held to",
	"StartJob":         "sim: start-by-pointer, one of the three ops FuzzQueueMirror and the backfill oracle drive the waiting queue with",
	"GradCheck":        "nn: the finite-difference oracle for every layer's and the whole DFP topology's Backward",
	"MSE":              "nn: the loss GradCheck differentiates in the layer suites",
	"MaskedMSE":        "nn: the allocating form the reference training step (dfp/engine_test.go) is written with",
	"SetWide":          "nn/kernel: the hook the 512-bit-vs-256-bit form tests flip; nothing else may select a form",
	"TrainStep":        "dfp: a burst of one, the unit the engine, burst, snapshot and state suites step and the reference step is compared against",
	"Predict":          "dfp: exposes forwardDueling's rows to the gradient-check, actor-equivalence and root benchmarks",
	"ExtendGoal":       "dfp: the allocating goal extension the reference step and Predict's callers feed it with",
	"MustPrepare":      "experiments: materials fixture of five experiments suites and the root benchmarks",
	"Theta":            "workload: the full-scale system; pins §IV-C's 11410-wide state and sizes the paper-scale benchmarks",
	"PaperScaleConfig": "dfp: §IV-C's full-size network (4000/1000/512), which the paper-scale root benchmarks (§V-F decision latency, one training step) build",
	"WriteSWF":         "job: the writing half of FuzzParseSWF's round trip and of the integration suite's trace IO",
}

// TestReachability holds ROADMAP aim 2's floor: every top-level func, method
// and type declared in a non-test file under internal/ is named by some
// non-test file of internal/, cmd/, bench/ or examples/ other than at its own
// declaration. The scan is by identifier, not by type: a method shares its
// name with every other method of that name, which is coarse in the
// forgiving direction only.
func TestReachability(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}     // identifier occurrences in non-test files
	declared := map[string]int{} // of those, the declaring occurrences
	where := map[string]string{} // name → first declaration site under internal/
	for _, root := range []string{"internal", "cmd", "bench", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name]++
				}
				return true
			})
			declare := func(id *ast.Ident) {
				declared[id.Name]++
				if _, seen := where[id.Name]; !seen && root == "internal" {
					where[id.Name] = fset.Position(id.Pos()).String()
				}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					declare(d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							declare(ts.Name)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	for name, site := range where {
		if _, kept := reachAllow[name]; kept || uses[name] > declared[name] || implicit(name) {
			continue
		}
		dead = append(dead, site+": "+name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named by no non-test file of internal/, cmd/, bench/, examples/: delete it with its tests, or allowlist it with the reason", d)
	}
	for name := range reachAllow {
		if _, ok := where[name]; !ok || uses[name] > declared[name] {
			t.Errorf("reachAllow[%q] is stale: the name is gone or reachable", name)
		}
	}
	if len(reachAllow) > 20 {
		t.Errorf("reachAllow holds %d names, at most 20", len(reachAllow))
	}
}

// implicit reports names the language or the standard library calls without
// naming them.
func implicit(name string) bool {
	switch name {
	case "init", "String", "Error":
		return true
	}
	return false
}
