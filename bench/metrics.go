package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef is one row of BENCHMARK.json: the tables below are the single
// source the binary emits from, and bench_test.go asserts the committed
// BENCHMARK.json equals them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// runSeconds is BENCHMARK.json's run_seconds: the measured window of every
// run, the same on every commit.
const runSeconds = 25

// workloadNames are the four workloads, in run order. The names are fixed:
// later issues cite them.
var workloadNames = []string{"serve-lone", "campaign-fcfs", "campaign-mrsch", "train-rollout"}

// endToEnd are the metrics every workload reports from an untraced run. The
// time bounds are the widest a benchmark may set, not the 0.10 the benchmark
// was designed to: README.md ("Bounds") has the same-code spreads and host
// drift that set them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// run through reports 0: the zero is the prediction "nothing here moves this
// workload" made checkable.
var perLayer = []metricDef{
	// serve-lone: where one round trip goes, client side outside-in.
	{Name: "serve.client_send_us", Unit: "us", Better: "lower"},
	{Name: "wire.c2s_transit_us", Unit: "us", Better: "lower"},
	{Name: "serve.turnaround_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.decide_us", Unit: "us", Better: "lower"},
	{Name: "serve.codec_context_us", Unit: "us", Better: "lower"},
	{Name: "wire.s2c_transit_us", Unit: "us", Better: "lower"},
	{Name: "serve.client_recv_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.request_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.reply_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "serve.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "cluster.rebuild_us", Unit: "us", Better: "lower"},
	// campaign-mrsch: the learned picker inside the sim loop.
	{Name: "encode.encode_us", Unit: "us", Better: "lower"},
	{Name: "encode.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pick_us", Unit: "us", Better: "lower"},
	{Name: "dfp.forward_us", Unit: "us", Better: "lower"},
	{Name: "sched.pick_us", Unit: "us", Better: "lower"},
	{Name: "sched.decisions_per_cell", Unit: "count", Better: "lower"},
	// campaign-fcfs (and the simulator share of campaign-mrsch).
	{Name: "workload.materialize_us", Unit: "us", Better: "lower"},
	{Name: "job.clone_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_us", Unit: "us", Better: "lower"},
	{Name: "sim.self_us_per_job", Unit: "us", Better: "lower"},
	{Name: "sim.jobs_per_cell", Unit: "count", Better: "higher"},
	{Name: "sim.allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "metrics.collect_us", Unit: "us", Better: "lower"},
	{Name: "experiments.cell_overhead_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ga.pick_us", Unit: "us", Better: "lower"},
	// train-rollout: the write side of nn.
	{Name: "dfp.train_step_us", Unit: "us", Better: "lower"},
	{Name: "dfp.train_steps_per_op", Unit: "count", Better: "lower"},
	{Name: "dfp.train_step_share", Unit: "ratio", Better: "lower"},
	{Name: "rollout.collect_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "rollout.other_share", Unit: "ratio", Better: "lower"},
	{Name: "rollout.episodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dfp.grad_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dfp.act_us", Unit: "us", Better: "lower"},
	{Name: "rollout.allocs_per_episode", Unit: "count", Better: "lower"},
	// set-up, every workload.
	{Name: "experiments.prepare_us", Unit: "us", Better: "lower"},
	{Name: "workload.generate_us", Unit: "us", Better: "lower"},
	// housekeeping.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.steal_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit fills a metrics map from a table and measured values. A name the
// values lack reports 0 (per-layer: the layer is not on this workload's
// path).
func emit(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 on an even count averages the middle two). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowest and highest return 0 for no samples (every op failed), so that the
// result still prints.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func highest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }
