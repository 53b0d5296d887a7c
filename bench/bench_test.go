package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/scenario"
)

func smokeConfig(t *testing.T, workload string) config {
	t.Helper()
	return config{workload: workload, seed: 1, smoke: true, outDir: t.TempDir(), log: io.Discard}
}

// TestBenchmarkJSON pins the committed BENCHMARK.json to the tables the
// binary emits from: workloads, names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the binary's default window is %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the binary runs %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the binary's is %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the binary emits %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %s/%s/%s, the binary emits %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound %v, the binary's is %v (bounded: %v)", kind, g.Name, g.Bound, w.Bound, bounded)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts a result carries exactly the table's metrics, with
// the table's units, legal names and finite values.
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not legal", d.Name)
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %v is not finite", d.Name, v.Value)
		}
	}
}

// TestMain lets the tests drive run() all the way through child(): the
// benchmark re-executes its own binary per workload, and under `go test` that
// is the test binary, which acts as the benchmark when asked to.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_BINARY") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestSmoke is `go run ./bench -smoke`: every workload through both run
// kinds at tiny scale, one pass each, a fresh process each, one document.
func TestSmoke(t *testing.T) {
	t.Setenv("BENCH_TEST_AS_BINARY", "1")
	outDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", outDir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.Bytes())
	}
	var doc struct {
		Env      environment       `json:"env"`
		EndToEnd map[string]result `json:"end_to_end"`
		PerLayer map[string]result `json:"per_layer"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("%v\n%s", err, stdout.Bytes())
	}
	if doc.Env.Commit == "" || doc.Env.Kernel == "" || doc.Env.Go == "" || doc.Env.NProc < 1 || doc.Env.Seed != 1 {
		t.Errorf("environment block %+v", doc.Env)
	}
	if len(doc.EndToEnd) != len(workloadNames) || len(doc.PerLayer) != len(workloadNames) {
		t.Errorf("%d end-to-end and %d per-layer results, want %d each", len(doc.EndToEnd), len(doc.PerLayer), len(workloadNames))
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := doc.EndToEnd[name]
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			res = doc.PerLayer[name]
			checkMetrics(t, res, perLayer)
			if r := res.Metrics["trace.overhead_ratio"].Value; r <= 0 {
				t.Errorf("trace.overhead_ratio = %v", r)
			}
			data, err := os.ReadFile(filepath.Join(outDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			for i, s := range trace.Spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d (%s): start %d end %d parent %d", i, s.Name, s.Start, s.End, s.Parent)
				}
			}
		})
	}
}

// TestFlags: what run refuses, and the last line of a single-workload run.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-seconds", "7"}, 2}, // the window is fixed; only run_seconds itself is accepted
		{[]string{"-trace", "2"}, 2},
		{[]string{"-smoke", "stray"}, 2},
		{[]string{"-smoke", "-workload", "serve-pair"}, 1},
	} {
		if code := run(tc.args, io.Discard, io.Discard); code != tc.code {
			t.Errorf("run %v: exit code %d, want %d", tc.args, code, tc.code)
		}
	}

	// What the driver types: double-dash flags and run_seconds spelled out.
	var stdout bytes.Buffer
	args := []string{"--workload", "train-rollout", "--seed", "3", "--seconds", fmt.Sprint(runSeconds), "--trace", "0", "-smoke", "-out", t.TempDir()}
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("run %v: exit code %d", args, code)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, endToEnd)
}

// TestCompare: -repeat fails a workload on a median gap past the bound and
// on a spread past the bound, setup_s's spread excepted.
func TestCompare(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{50, 60, 80, 90, 100, 100, 110, 120, 140, 150} // spread 0.5
	sets := func(change func(a, b map[string][]float64)) [2]map[string][]float64 {
		var s [2]map[string][]float64
		for i := range s {
			s[i] = map[string][]float64{}
			for _, d := range endToEnd {
				s[i][d.Name] = steady
			}
		}
		change(s[0], s[1])
		return s
	}
	for _, tc := range []struct {
		name   string
		change func(a, b map[string][]float64)
		ok     bool
	}{
		{"identical sets", func(a, b map[string][]float64) {}, true},
		{"slower second set", func(a, b map[string][]float64) { b["op_p50_us"] = scaled(steady, 1.5) }, false},
		{"faster second set", func(a, b map[string][]float64) { b["op_p50_us"] = scaled(steady, 0.5) }, true},
		{"lower throughput in second set", func(a, b map[string][]float64) { b["ops_per_s"] = scaled(steady, 0.5) }, false},
		{"wide spread", func(a, b map[string][]float64) { a["op_p50_us"] = wide }, false},
		{"wide spread of setup_s", func(a, b map[string][]float64) { a["setup_s"], b["setup_s"] = wide, wide }, true},
	} {
		var table bytes.Buffer
		if ok := compare("serve-lone", sets(tc.change), &table); ok != tc.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", tc.name, ok, tc.ok, table.Bytes())
		}
	}
}

// TestWrongAnswersFail: an op whose pick, report digest or weights digest is
// not the expected one is counted in failed and leaves no latency sample.
func TestWrongAnswersFail(t *testing.T) {
	corrupt := map[string]func(w workload){
		"serve-lone":     func(w workload) { w.(*serveLone).want[0]++ },
		"campaign-fcfs":  func(w workload) { w.(*campaign).want[0] = "not a digest" },
		"campaign-mrsch": func(w workload) { w.(*campaign).want[0] = "not a digest" },
		"train-rollout":  func(w workload) { w.(*trainRollout).want = "not a digest" },
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			defer w.teardown()
			if win := measure(w, 0); win.failed != 0 {
				t.Fatalf("before corruption: %d of %d ops failed: %v", win.failed, win.attempted, win.firstErr)
			}
			corrupt[name](w)
			win := measure(w, 0)
			if win.failed != 1 || win.attempted != w.cycle() || len(win.latUs) != w.cycle()-1 {
				t.Errorf("after corruption: %d failed of %d, %d latency samples; want exactly one failed op without a sample",
					win.failed, win.attempted, len(win.latUs))
			}
		})
	}
}

// TestCampaignSpecIsCanonical: the committed spec is what CampaignSpec.Dump
// writes and strict scenario.Load reads back.
func TestCampaignSpecIsCanonical(t *testing.T) {
	spec, err := scenario.Load(bytes.NewReader(campaignSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), campaignSpecJSON) {
		t.Errorf("bench/specs/bench-campaign.json is not in Dump form; Dump gives:\n%s", buf.Bytes())
	}
}

// TestSpread pins spread to Python's statistics.quantiles(xs, n=4).
func TestSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 14, 13, 10.5, 11.5, 12.5}
	// statistics.quantiles(xs, n=4) = [10.375, 11.75, 13.25]; median 11.75.
	if got, want := spread(xs), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
