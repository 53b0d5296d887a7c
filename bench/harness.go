package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// config is one single-workload run.
type config struct {
	workload string
	seed     int64
	smoke    bool   // tiny scale, one set-up, one cycle
	outDir   string // where a traced run writes its spans
	log      io.Writer
}

// scale is the model geometry every workload runs at: quick (Theta/32,
// window 10) with the run's seed; -smoke drops to tiny.
func (c config) scale() experiments.Scale {
	sc := experiments.QuickScale()
	if c.smoke {
		sc = experiments.TinyScale()
	}
	sc.Seed = c.seed
	return sc
}

// duration is the length of the measured window: runSeconds for every real
// run, and one pass under -smoke.
func (c config) duration() time.Duration {
	if c.smoke {
		return 0
	}
	return runSeconds * time.Second
}

// setupRepeats is how many fresh, complete set-ups a run times; the last one
// is kept and measured.
func (c config) setupRepeats() int {
	if c.smoke {
		return 1
	}
	return 5
}

// workload is one of the four benchmark workloads: a set-up and a fixed,
// seed-determined cycle of ops, each op carrying its own correctness check.
type workload interface {
	// setup does everything before the first steady-state op, including one
	// warm-up pass over the cycle. It is called on a torn-down workload.
	setup() error
	// teardown stops what setup started and waits for it.
	teardown()
	// cycle is the number of ops in one pass.
	cycle() int
	// op runs op i of the cycle. Any error, a failed check included, counts
	// the op as failed.
	op(i int) error
	// trace runs traceCycles traced passes and the layer replicas after
	// setup, returning the per-layer metrics it owns.
	trace(rec *recorder, ref window) (map[string]float64, error)
}

func newWorkload(c config) (workload, error) {
	switch c.workload {
	case "serve-lone":
		return &serveLone{cfg: c}, nil
	case "campaign-fcfs":
		return &campaign{cfg: c, kind: scenario.KindHeuristic}, nil
	case "campaign-mrsch":
		return &campaign{cfg: c, kind: scenario.KindMRSch}, nil
	case "train-rollout":
		return &trainRollout{cfg: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
}

// window is what one measured stretch of whole passes observed.
type window struct {
	latUs     []float64 // one sample per successful op, sorted within each pass
	passP50   []float64 // per pass: median latency of its successful ops
	rates     []float64 // per pass: successful ops / wall seconds
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

// Interference on a shared host only ever adds time, and it comes in spells
// that cover part of a window: over ten runs the window median of identical
// work spread 21%, the lower quartile over passes 18%, the fastest pass 11%
// (README.md, "Estimators"). Both end-to-end timings are therefore taken from
// the least disturbed pass, as setup_s is from the least disturbed set-up.

// p50 is op_p50_us: per pass, the median latency over its ops (every op kind
// once); over passes, the lowest. Where a pass is one op it is the fastest op.
func (w *window) p50() float64 { return lowest(w.passP50) }

// rate is ops_per_s: per pass, ops over wall time; over passes, the highest.
func (w *window) rate() float64 { return highest(w.rates) }

// measure runs whole passes over the cycle until d has elapsed (d = 0: one
// pass), so every op kind is equally represented however fast the code is.
// The sample buffers are allocated before the first op; the harness holds
// under 1 MiB.
func measure(w workload, d time.Duration) window {
	win := window{
		latUs:   make([]float64, 0, 1<<16),
		passP50: make([]float64, 0, 1<<12),
		rates:   make([]float64, 0, 1<<12),
	}
	runtime.ReadMemStats(&win.mem0)
	start := time.Now()
	for {
		passStart, first := time.Now(), len(win.latUs)
		for i := 0; i < w.cycle(); i++ {
			t0 := time.Now()
			err := w.op(i)
			dt := time.Since(t0)
			win.attempted++
			if err != nil {
				win.failed++
				if win.firstErr == nil {
					win.firstErr = err
				}
				continue
			}
			win.latUs = append(win.latUs, micros(int64(dt)))
		}
		pass := win.latUs[first:]
		win.rates = append(win.rates, float64(len(pass))/time.Since(passStart).Seconds())
		if len(pass) > 0 {
			win.passP50 = append(win.passP50, median(pass))
		}
		if time.Since(start) >= d {
			break
		}
	}
	win.wall = time.Since(start)
	runtime.ReadMemStats(&win.mem1)
	return win
}

// setUp times the run's fresh set-ups and leaves the last one standing.
func setUp(c config, w workload, repeats int) ([]float64, error) {
	times := make([]float64, 0, repeats)
	for k := 0; k < repeats; k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up %d: %w", c.workload, k+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Fprintf(c.log, "%s: cycle of %d ops; set-ups (s): %.4f\n", c.workload, w.cycle(), times)
	return times, nil
}

// runUntraced is the end-to-end run: repeated set-ups, then the measured
// window with no tracing and no telemetry registry.
func runUntraced(c config) (result, error) {
	w, err := newWorkload(c)
	if err != nil {
		return result{}, err
	}
	setups, err := setUp(c, w, c.setupRepeats())
	if err != nil {
		return result{}, err
	}
	defer w.teardown()

	cpu0 := readCPUTimes()
	win := measure(w, c.duration())
	steal := stealShare(cpu0, readCPUTimes())

	// live_heap_mb: what the workload keeps alive, not what the window
	// allocated and dropped. Two collections so finalizer-freed memory of
	// the first is gone too.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)

	fmt.Fprintf(c.log, "%s: %d ops (%d failed) in %.2fs: %d latency samples, %d passes, steal %.2f%%\n",
		c.workload, win.attempted, win.failed, win.wall.Seconds(), len(win.latUs), len(win.rates), 100*steal)
	fmt.Fprintf(c.log, "%s: per-pass median latency (us): lowest %.1f, quartiles %.1f %.1f %.1f; whole window: median %.1f, %.4f ops/s\n", c.workload,
		lowest(win.passP50), quantile(win.passP50, 0.25), quantile(win.passP50, 0.5), quantile(win.passP50, 0.75),
		median(append([]float64(nil), win.latUs...)), float64(len(win.latUs))/win.wall.Seconds())
	if win.firstErr != nil {
		fmt.Fprintf(c.log, "%s: first failure: %v\n", c.workload, win.firstErr)
	}
	return result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: emit(endToEnd, map[string]float64{
			"setup_s":      lowest(setups),
			"op_p50_us":    win.p50(),
			"ops_per_s":    win.rate(),
			"live_heap_mb": float64(ms.HeapAlloc) / 1e6,
		}),
	}, nil
}

// traceCycles is how many whole cycles a traced run records.
const traceCycles = 3

// runTraced is the per-layer run: one set-up, a short untraced reference
// window (tracing overhead, allocation and GC rates), then the traced cycles
// and the layer replicas. Spans stay in memory and are written at the end.
func runTraced(c config) (result, error) {
	w, err := newWorkload(c)
	if err != nil {
		return result{}, err
	}
	if _, err := setUp(c, w, 1); err != nil {
		return result{}, err
	}
	defer w.teardown()

	cpu0 := readCPUTimes()
	ref := measure(w, c.duration()/4)
	rec := newRecorder()
	layers, err := w.trace(rec, ref)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced run: %w", c.workload, err)
	}
	layers["runtime.steal_share"] = stealShare(cpu0, readCPUTimes())
	ops := float64(ref.attempted)
	layers["runtime.gc_cycles_per_op"] = float64(ref.mem1.NumGC-ref.mem0.NumGC) / ops
	layers["runtime.gc_pause_us_per_op"] = micros(int64(ref.mem1.PauseTotalNs-ref.mem0.PauseTotalNs)) / ops

	path, err := rec.write(c.outDir, c.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(c.log, "%s: %d spans written to %s\n", c.workload, len(rec.spans), path)
	failed := ref.failed + rec.failed
	return result{
		Correct:   failed == 0,
		Attempted: ref.attempted + rec.attempted,
		Failed:    failed,
		Metrics:   emit(perLayer, layers),
	}, nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes reads the host-wide CPU counters; the zero value (no procfs)
// makes every steal share 0.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of host CPU time the hypervisor gave to someone
// else between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
