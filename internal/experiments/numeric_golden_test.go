package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/nn/kernel"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// numericGoldenPath pins the numbers of every trained method end to end:
// report digests and saved-weights digests, one table for every kernel set
// (the sets compute the same bits). Regenerate after an intentional numeric
// change:
//
//	UPDATE_GOLDEN=1 go test -run TestNumericGolden ./internal/experiments/
var numericGoldenPath = filepath.Join("testdata", "numeric-golden.json")

// numericDigest is what one trained method must reproduce bit for bit.
type numericDigest struct {
	Report  string `json:"report"`  // SHA-256 of the S4 cell's report JSON
	Weights string `json:"weights"` // weightsDigest of the stored model file
}

// numericGoldenCases cover the three layer stacks a refactor of nn/dfp/rl can
// move: Dense+LeakyReLU through the DFP engine, Conv1D+MaxPool1D through the
// same engine, and Dense+Softmax through per-step REINFORCE; and the two
// trainers again in pipelined mode, whose rounds roll out against a weight
// snapshot one round behind.
var numericGoldenCases = []struct {
	name   string
	method scenario.MethodSpec
	opt    CampaignOptions
}{
	{"mrsch-mlp", scenario.MethodSpec{Kind: scenario.KindMRSch, Train: true}, CampaignOptions{}},
	{"mrsch-cnn", scenario.MethodSpec{Kind: scenario.KindMRSch, Train: true, CNN: true}, CampaignOptions{}},
	{"scalar-rl", scenario.MethodSpec{Kind: scenario.KindScalarRL, Train: true}, CampaignOptions{}},
	{"mrsch-mlp-pipelined", scenario.MethodSpec{Kind: scenario.KindMRSch, Train: true}, CampaignOptions{Pipelined: true}},
	{"scalar-rl-pipelined", scenario.MethodSpec{Kind: scenario.KindScalarRL, Train: true}, CampaignOptions{Pipelined: true}},
}

// numericRun trains the method on S4 at tiny scale under opt, evaluates the
// S4 cell with the trained model and digests both artifacts. numericRun sets
// opt's model store; the caller sets the rest.
func numericRun(t *testing.T, method scenario.MethodSpec, opt CampaignOptions) numericDigest {
	t.Helper()
	s4, err := scenario.ByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "numeric-golden",
		Scale:     scenario.TinyScaleSpec(),
		Scenarios: []scenario.ScenarioSpec{s4},
		Methods:   []scenario.MethodSpec{method},
	}
	var model string
	opt.ModelDir = t.TempDir()
	opt.OnModel = func(_, _, path string) { model = path }
	results, err := RunCampaign(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || model == "" {
		t.Fatalf("%d results, model file %q", len(results), model)
	}
	report, err := json.Marshal(results[0].Report)
	if err != nil {
		t.Fatal(err)
	}
	weights, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	return numericDigest{
		Report:  fmt.Sprintf("%x", sha256.Sum256(report)),
		Weights: weightsDigest(t, weights),
	}
}

// weightsDigest hashes the numbers in a model file, not its container: the
// SHA-256 of each parameter's name followed by its values' float64 bits
// (little-endian), in parameter order.
func weightsDigest(t *testing.T, file []byte) string {
	t.Helper()
	h := sha256.New()
	err := wire.Unseal(file, func(r *wire.Reader) (func(), error) {
		if err := r.Magic("mrsch-nn-weights-v2"); err != nil {
			return nil, err
		}
		for n := r.Count(2); n > 0; n-- {
			h.Write(r.Bytes())
			h.Write(wire.AppendFloats(nil, r.Floats(r.Count(8))))
		}
		return func() {}, r.Err()
	})
	if err != nil {
		t.Fatalf("model file: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestNumericGolden(t *testing.T) {
	got := map[string]numericDigest{}
	for _, c := range numericGoldenCases {
		opt := c.opt
		opt.Workers = 1
		got[c.name] = numericRun(t, c.method, opt)
	}

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(numericGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", numericGoldenPath)
		return
	}
	want := map[string]numericDigest{}
	data, err := os.ReadFile(numericGoldenPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		t.Fatalf("numeric golden unreadable (generate with UPDATE_GOLDEN=1): %v", err)
	}
	for _, c := range numericGoldenCases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s under kernel set %q:\n got %+v\nwant %+v", c.name, kernel.Name(), got[c.name], want[c.name])
		}
	}
}

// A trained model is a function of its spec: a campaign trains the same
// weights at every CampaignOptions.Workers and every GOMAXPROCS, for MRSch
// and for Scalar RL, barrier and pipelined. A gradient step always sums its
// minibatch in the same two shards, whose boundaries set its summation
// order, and a rollout round is one episode — so the goldens above need no
// pin.
func TestTrainedWeightsIgnoreCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range numericGoldenCases {
		if c.method.CNN {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			want := ""
			for _, procs := range []int{1, 2, 3, 4} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 3} {
					opt := c.opt
					opt.Workers = workers
					got := numericRun(t, c.method, opt).Weights
					if want == "" {
						want = got
					}
					if got != want {
						t.Fatalf("Workers=%d GOMAXPROCS=%d trained weights %s, Workers=1 GOMAXPROCS=1 trained %s", workers, procs, got, want)
					}
				}
			}
		})
	}
}
