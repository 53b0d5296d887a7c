package dfp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/nn/kernel"
)

// burstCases are the agents the burst tests run on, each built afresh per
// call.
var burstCases = []struct {
	name string
	mk   func() *Agent
}{
	// workers=N: the minibatch is cut into N shards, one per worker.
	{"workers=1", func() *Agent { return burstAgent(1, 0) }},
	{"workers=2", func() *Agent { return burstAgent(2, 0) }},
	{"workers=3", func() *Agent { return burstAgent(3, 0) }},
	{"workers=4", func() *Agent { return burstAgent(4, 0) }},
	// Fewer samples than shards: the burst runs three workers.
	{"batch=3,workers=4", func() *Agent { return burstAgent(4, 3) }},
	// Shards of two leave the fourth worker an empty one.
	{"batch=5,workers=4", func() *Agent { return burstAgent(4, 5) }},
	{"cnn", func() *Agent {
		a := New(smallCNNConfig())
		fillReplay(a, 40, 21)
		return a
	}},
}

// burstAgent is an agent whose steps cut the minibatch into `workers` shards.
func burstAgent(workers, batch int) *Agent {
	cfg := smallConfig()
	cfg.shards = workers
	if batch > 0 {
		cfg.BatchSize = batch
	}
	a := New(cfg)
	fillReplay(a, 64, 9)
	return a
}

// burstLosses runs one burst and returns the losses after was handed.
func burstLosses(a *Agent, n int) []float64 {
	var losses []float64
	a.TrainSteps(n, func(l float64) { losses = append(losses, l) })
	return losses
}

func stepLosses(a *Agent, n int) []float64 {
	var losses []float64
	for i := 0; i < n; i++ {
		losses = append(losses, a.TrainStep())
	}
	return losses
}

func sameLosses(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: loss %d is %v, want %v (must be bitwise equal)", what, i, got[i], want[i])
		}
	}
}

// atOneCPU runs f as is and again with a single CPU, where a barrier waiter
// makes progress only by yielding to the worker it waits for.
func atOneCPU(t *testing.T, f func(t *testing.T)) {
	t.Run("cpus=default", f)
	t.Run("cpus=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f(t)
	})
}

// TestTrainStepsEqualsTrainStepLoop: a burst of n is n single steps to the
// bit — every loss, and the whole durable state (weights, Adam moments and
// step counter, rng cursor, step count) — whether it runs as one burst or as
// several.
func TestTrainStepsEqualsTrainStepLoop(t *testing.T) {
	atOneCPU(t, func(t *testing.T) {
		for _, c := range burstCases {
			t.Run(c.name, func(t *testing.T) {
				const n = 7
				steps, burst, split := c.mk(), c.mk(), c.mk()
				want := stepLosses(steps, n)
				sameLosses(t, "one burst", burstLosses(burst, n), want)
				sameLosses(t, "two bursts", append(burstLosses(split, 3), burstLosses(split, n-3)...), want)
				state := stateBytes(t, steps)
				if !bytes.Equal(stateBytes(t, burst), state) {
					t.Fatal("state after TrainSteps(7) differs from 7 x TrainStep()")
				}
				if !bytes.Equal(stateBytes(t, split), state) {
					t.Fatal("state after TrainSteps(3)+TrainSteps(4) differs from 7 x TrainStep()")
				}
			})
		}
	})
}

// TestBurstWideEqualsNarrowForms: the avx2 set's 512-bit kernel forms are its
// 256-bit arithmetic, so a 32-step burst ends in the same durable state
// (weights, both Adam moments, step counters, rng cursor) and reports the same
// 32 losses under either, at one, two and three workers — on the tiny test
// network, whose layers are mostly tails, and on one whose shards fill whole
// tiles and blocks of eight with remainders on every side.
func TestBurstWideEqualsNarrowForms(t *testing.T) {
	if kernel.Name() != "avx2" || !strings.Contains(kernel.Features(), "forms=wide") {
		t.Skipf("no 512-bit forms to compare (kernel set %q, probed: %s)", kernel.Name(), kernel.Features())
	}
	tiled := DefaultConfig(70, 2, 5)
	tiled.StateHidden, tiled.StateOut = []int{28, 20}, 12
	tiled.ModuleHidden, tiled.StreamHidden = 9, 21
	for name, cfg := range map[string]Config{"small": smallConfig(), "tiled": tiled} {
		for workers := 1; workers <= 3; workers++ {
			run := func(wide bool) ([]float64, []byte) {
				kernel.SetWide(wide)
				defer kernel.SetWide(true)
				cfg.shards = workers
				a := New(cfg)
				fillReplay(a, 64, 9)
				losses := burstLosses(a, 32)
				return losses, stateBytes(t, a)
			}
			narrowLosses, narrowState := run(false)
			wideLosses, wideState := run(true)
			what := fmt.Sprintf("%s workers=%d", name, workers)
			sameLosses(t, what, wideLosses, narrowLosses)
			if !bytes.Equal(wideState, narrowState) {
				t.Fatalf("%s: state after 32 steps on the 512-bit forms differs from the 256-bit forms'", what)
			}
		}
	}
}

// TestTrainStepsEmptyReplayAndNoSteps: with nothing to sample every step
// reports -1 and no worker is built; n <= 0 does nothing at all.
func TestTrainStepsEmptyReplayAndNoSteps(t *testing.T) {
	cfg := smallConfig()
	cfg.shards = 3
	a := New(cfg)
	sameLosses(t, "empty replay", burstLosses(a, 4), []float64{-1, -1, -1, -1})
	a.TrainSteps(4, nil)
	if a.workers != nil {
		t.Fatal("a burst on an empty replay built the worker pool")
	}
	fillReplay(a, 20, 1)
	before := stateBytes(t, a)
	for _, n := range []int{0, -3} {
		a.TrainSteps(n, func(float64) { t.Fatalf("TrainSteps(%d) ran a step", n) })
	}
	if !bytes.Equal(stateBytes(t, a), before) {
		t.Fatal("TrainSteps(n <= 0) changed the agent")
	}
}

// goroutinesSettleAt waits for the goroutine count to come back down to
// base: a helper counts until the runtime has retired it, an instant after
// it reported that it left (and base itself may still count one of an
// earlier test's).
func goroutinesSettleAt(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the burst: a helper outlived it", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestBurstLeavesNoGoroutine: the helpers are gone when TrainSteps returns,
// and also when it is left by a panic in after — which the caller sees, and
// which leaves the agent exactly where the completed steps put it.
func TestBurstLeavesNoGoroutine(t *testing.T) {
	atOneCPU(t, func(t *testing.T) {
		a, ref := burstAgent(4, 0), burstAgent(4, 0)
		base := runtime.NumGoroutine()
		a.TrainSteps(5, nil)
		goroutinesSettleAt(t, base)

		func() {
			defer func() {
				if r := recover(); r != "after gave up" {
					t.Fatalf("recovered %v, want the panic raised in after", r)
				}
			}()
			a.TrainSteps(5, func(float64) { panic("after gave up") })
			t.Fatal("TrainSteps returned normally from a panicking after")
		}()
		goroutinesSettleAt(t, base)

		// Five steps, then the one that finished before after panicked.
		a.TrainSteps(3, nil)
		goroutinesSettleAt(t, base)
		ref.TrainSteps(5+1+3, nil)
		if !bytes.Equal(stateBytes(t, a), stateBytes(t, ref)) {
			t.Fatal("an abandoned burst left the agent somewhere other than after its completed steps")
		}
	})
}

// TestBurstAllocatesPerBurstNotPerStep: a warm burst costs the same number
// of allocations whatever its length (starting the helpers), none at one
// worker, and a lone TrainStep at one worker none either.
func TestBurstAllocatesPerBurstNotPerStep(t *testing.T) {
	for _, workers := range []int{1, 2} {
		a := burstAgent(workers, 0)
		a.TrainSteps(2, nil) // grow every scratch buffer, lay the plan out
		short := testing.AllocsPerRun(10, func() { a.TrainSteps(32, nil) })
		long := testing.AllocsPerRun(10, func() { a.TrainSteps(96, nil) })
		if short != long {
			t.Errorf("workers=%d: %v allocations for 32 steps, %v for 96: something allocates per step", workers, short, long)
		}
		if most := float64(4 * (workers - 1)); short > most {
			t.Errorf("workers=%d: a burst allocates %v times, want at most %v", workers, short, most)
		}
	}
	a := burstAgent(1, 0)
	a.TrainStep()
	if allocs := testing.AllocsPerRun(20, func() { a.TrainStep() }); allocs != 0 {
		t.Errorf("workers=1: TrainStep allocates %v times, want 0", allocs)
	}
}

// TestTrainStepsAllocatesOnceABurst pins what BenchmarkTrainStep reports at
// two workers: a warm 32-step burst allocates once, the closure its one
// helper goroutine starts with, and no step allocates.
func TestTrainStepsAllocatesOnceABurst(t *testing.T) {
	a := burstAgent(2, 0)
	a.TrainSteps(2, nil) // grow every scratch buffer, lay the plan out
	if allocs := testing.AllocsPerRun(20, func() { a.TrainSteps(32, nil) }); allocs > 1 {
		t.Errorf("a warm 32-step burst at two workers allocates %v times, want at most 1", allocs)
	}
}

// TestLoadStateIntoWarmAgent: loading a state replaces the optimizer's moment
// vectors, so nothing the engine keeps from earlier steps may stand in for
// them. An agent that has already trained, then loads a checkpoint, must
// continue exactly as a fresh agent loading the same checkpoint does.
func TestLoadStateIntoWarmAgent(t *testing.T) {
	src := burstAgent(3, 0)
	src.TrainSteps(6, nil)
	saved := stateBytes(t, src)

	warm, fresh := burstAgent(3, 0), burstAgent(3, 0)
	warm.TrainSteps(9, nil)
	for _, a := range []*Agent{warm, fresh} {
		if err := loadState(a, saved); err != nil {
			t.Fatal(err)
		}
	}
	sameLosses(t, "warm agent after loading a state", burstLosses(warm, 5), burstLosses(fresh, 5))
	if !bytes.Equal(stateBytes(t, warm), stateBytes(t, fresh)) {
		t.Fatal("a warm agent continued from a checkpoint differently from a fresh one (weights, moments, t or rng cursor)")
	}
}

// TestStepPlanCoversEveryParameterOnce: whatever the worker count, every
// parameter has exactly one owner, every element lies in exactly one range,
// and no worker updates more than its 1/nw of the elements.
func TestStepPlanCoversEveryParameterOnce(t *testing.T) {
	a := burstAgent(1, 0)
	for nw := 1; nw <= 5; nw++ {
		a.planFor(nw)
		owners := make([]int, len(a.params))
		for _, owned := range a.plan.owned {
			for _, i := range owned {
				owners[i]++
			}
		}
		covered := make([][]int, len(a.params))
		for i, p := range a.params {
			covered[i] = make([]int, len(p.Value))
		}
		for w, ranges := range a.plan.ranges {
			n := 0
			for _, r := range ranges {
				for k := r.lo; k < r.hi; k++ {
					covered[r.param][k]++
				}
				n += r.hi - r.lo
			}
			if n > a.NumParams()/nw+1 {
				t.Fatalf("nw=%d: worker %d updates %d of %d elements", nw, w, n, a.NumParams())
			}
		}
		for i, c := range covered {
			for k, times := range c {
				if times != 1 {
					t.Fatalf("nw=%d: element %d of parameter %d lies in %d ranges", nw, k, i, times)
				}
			}
		}
		for i, c := range owners {
			if c != 1 {
				t.Fatalf("nw=%d: parameter %d has %d owners", nw, i, c)
			}
		}
	}
}
