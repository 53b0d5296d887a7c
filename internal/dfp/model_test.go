package dfp

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/nn/kernel"
)

// A model file loads into a model that saves the very bytes it was read from,
// keeps no gradient and decides like the agent that wrote it; the weights come
// from the file, not from the configuration's seed. A file for another state
// width, one of the other state module and one cut short anywhere load no
// model.
func TestLoadModelRoundTripAndRefusals(t *testing.T) {
	cfg := DefaultConfig(64, 2, 6)
	cfg.Seed = 13
	a := New(cfg)
	recordEpisode(a, 3, 40)
	for i := 0; i < 5; i++ {
		a.TrainStep()
	}
	var file bytes.Buffer
	if err := a.Model().Save(&file); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = 999 // another initialization: the weights must come from the file
	m, err := LoadModel(other, bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Fatalf("the loaded model saves %d bytes that differ from the %d it was loaded from", again.Len(), file.Len())
	}
	for _, p := range m.nets.params() {
		if p.Grad != nil {
			t.Fatalf("the loaded model's param %s keeps a %d-element gradient", p.Name, len(p.Grad))
		}
	}
	states, meas, goals, valid := randomInputs(&cfg, rand.New(rand.NewSource(4)), 24)
	ev := m.Evaluator()
	for i := range states {
		if got, want := ev.Act(states[i], meas[i], goals[i], valid[i]), a.Act(states[i], meas[i], goals[i], valid[i], false); got != want {
			t.Fatalf("row %d: the loaded model picks %d, the agent %d", i, got, want)
		}
	}

	wider := cfg
	wider.StateDim++
	cnn := cfg
	cnn.UseCNN = true
	for name, c := range map[string]Config{"StateDim": wider, "UseCNN": cnn} {
		if m, err := LoadModel(c, bytes.NewReader(file.Bytes())); err == nil || m != nil {
			t.Errorf("a file of the agent loaded under another %s: model %v, error %v", name, m != nil, err)
		}
		var foreign bytes.Buffer
		if err := New(c).Model().Save(&foreign); err != nil {
			t.Fatal(err)
		}
		if m, err := LoadModel(cfg, &foreign); err == nil || m != nil {
			t.Errorf("a file of another %s loaded: model %v, error %v", name, m != nil, err)
		}
	}
	n := file.Len()
	for _, cut := range []int{0, 1, 7, n / 3, n / 2, n - 33, n - 32, n - 1} {
		if m, err := LoadModel(cfg, bytes.NewReader(file.Bytes()[:cut])); err == nil || m != nil {
			t.Errorf("the file cut at %d of %d bytes loaded: model %v, error %v", cut, n, m != nil, err)
		}
	}
}

// A model loaded for a configuration with a custom state module reads the
// file into weights of its own: the caller's module keeps its values.
func TestLoadModelLeavesACustomStateModule(t *testing.T) {
	cfg := smallConfig()
	module := func(seed int64) nn.Layer {
		return nn.NewSequential(cfg.StateDim, nn.NewDense(cfg.StateDim, cfg.StateOut, nn.HeInit, rand.New(rand.NewSource(seed))))
	}
	writer := cfg
	writer.StateModule = module(1)
	var file bytes.Buffer
	if err := New(writer).Model().Save(&file); err != nil {
		t.Fatal(err)
	}
	reader := cfg
	reader.StateModule = module(2)
	before := nn.Weights(reader.StateModule.Params())
	m, err := LoadModel(reader, &file)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range reader.StateModule.Params() {
		if !slices.Equal(p.Value, before[i].Value) {
			t.Fatalf("loading the model wrote into the caller's state module param %s", p.Name)
		}
	}
	loaded, written := m.nets.state.Params(), writer.StateModule.Params()
	for i := range loaded {
		if !slices.Equal(loaded[i].Value, written[i].Value) {
			t.Fatalf("the model's state module param %s is not the file's", loaded[i].Name)
		}
	}
}

// Loading a quick-geometry model allocates under three times the file: the
// file's bytes read into one buffer sized up front (one), the architecture's
// values, which the file is decoded straight into (one, the first layer's
// zero matrix among them, dropped where the layer is packed), and the packed
// first layer (about 0.56) — about 2.6 files. Growing the buffer
// geometrically, or decoding into fresh vectors, goes over.
func TestLoadModelAllocatesUnderThreeFiles(t *testing.T) {
	cfg := quickConfig()
	var file bytes.Buffer
	if err := New(cfg).Model().Save(&file); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "quick.model")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(file.Bytes()) },
		"os.File": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, open := range readers {
		r := open()
		var err error
		n := allocated(func() { _, err = LoadModel(cfg, r) })
		if err != nil {
			t.Fatal(err)
		}
		if bound := 3 * uint64(file.Len()); n > bound {
			t.Errorf("%s: loading a %d-byte model allocated %d bytes (%.2fx), want at most %d", name, file.Len(), n, float64(n)/float64(file.Len()), bound)
		}
	}
}

// quickConfig is the quick-scale S4 geometry: a 394-wide state and a
// 394→128 first layer, which the avx2 set packs.
func quickConfig() Config {
	cfg := DefaultConfig(394, 2, 10)
	cfg.Offsets, cfg.TemporalWeights = []int{1, 2, 4, 8, 16}, []float64{0, 0, 0.5, 0.5, 1}
	return cfg
}

// packs reports whether the active kernel set packs a layer it is given.
func packs() bool { return kernel.Active().Pack != nil }

// A loaded model keeps its first layer in one layout: packed-only where the
// kernel set packs it — no dense matrix left — and dense where it declines (a
// -0 bias) or has no packed path. Either way it saves the bytes it was read
// from, and decides like the agent that wrote them.
func TestLoadModelKeepsOneLayout(t *testing.T) {
	for _, negZeroBias := range []bool{false, true} {
		cfg := quickConfig()
		cfg.Seed = 21
		a := New(cfg)
		if negZeroBias {
			firstDense(a.nets.state).B.Value[5] = math.Copysign(0, -1)
		}
		var file bytes.Buffer
		if err := a.Model().Save(&file); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(cfg, bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		first := firstDense(m.nets.state)
		if packedOnly, want := first.W.Value == nil, packs() && !negZeroBias; packedOnly != want {
			t.Fatalf("-0 bias %v: the loaded first layer is packed-only %v, want %v", negZeroBias, packedOnly, want)
		}
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), file.Bytes()) {
			t.Fatalf("-0 bias %v: the loaded model saves %d bytes that differ from the %d it was loaded from", negZeroBias, again.Len(), file.Len())
		}
		states, meas, goals, valid := sparseInputs(&cfg, rand.New(rand.NewSource(22)), 24)
		ev := m.Evaluator()
		for i := range states {
			if got, want := ev.Act(states[i], meas[i], goals[i], valid[i]), a.Act(states[i], meas[i], goals[i], valid[i], false); got != want {
				t.Fatalf("-0 bias %v: row %d: the loaded model picks %d, the agent %d", negZeroBias, i, got, want)
			}
		}
	}
}
