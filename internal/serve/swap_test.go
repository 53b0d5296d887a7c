package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/sched"
)

// TestConcurrentDecideAndSwap is the hot-swap race suite: N reader
// goroutines loop batched decides while the main goroutine swaps in
// alternating weight sets. Run under -race in CI, it proves the engine's
// lock discipline (contract rule 3); its assertions prove version
// atomicity — every batch's decisions match the exact model its reported
// version names, even mid-swap.
func TestConcurrentDecideAndSwap(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(43))
	const total = 12
	reqs := make([]Request, total)
	ctxs := make([]*sched.PickContext, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
		ctx, err := buildContext(sys, 6, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
	}

	// Swaps alternate between two weight sets, so version v serves seed 17
	// when odd and seed 18 when even — giving every reader an exact
	// reference for any version it observes.
	wantOdd := offlinePicks(t, testAgent(sys, 17), sys, reqs)
	wantEven := offlinePicks(t, testAgent(sys, 18), sys, reqs)
	var weightsOdd, weightsEven bytes.Buffer
	if err := testAgent(sys, 17).Save(&weightsOdd); err != nil {
		t.Fatal(err)
	}
	if err := testAgent(sys, 18).Save(&weightsEven); err != nil {
		t.Fatal(err)
	}

	eng := newEngine(testAgent(sys, 17))

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	stop := make(chan struct{})
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var dst []int
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (k + round) % total
				hi := lo + 1 + (round % 4)
				if hi > total {
					hi = total
				}
				var version uint64
				dst, version = eng.decide(ctxs[lo:hi], dst)
				want := wantOdd
				if version%2 == 0 {
					want = wantEven
				}
				for i := range dst {
					if dst[i] != want[lo+i] {
						errs <- fmt.Errorf("reader %d: request %d at version %d served %d, that version's model chooses %d",
							k, lo+i, version, dst[i], want[lo+i])
						return
					}
				}
			}
		}(k)
	}

	const swaps = 25
	for n := 0; n < swaps; n++ {
		weights := weightsEven.Bytes() // versions 2, 4, ... serve seed 18
		if n%2 == 1 {
			weights = weightsOdd.Bytes()
		}
		if _, err := eng.swap(bytes.NewReader(weights)); err != nil {
			t.Fatalf("swap %d: %v", n, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := eng.modelVersion(); v != swaps+1 {
		t.Fatalf("after %d swaps the engine serves version %d, want %d", swaps, v, swaps+1)
	}
}

// TestFailedSwapLeavesReadersUntouched races readers against repeated
// refused swaps: garbage, a weights file cut short, and a well-formed file
// of another geometry whose state, measurement and goal modules match the
// served ones, so it fails only at the first stream. Every load fails, the
// served weights are live and a swap loads in place, so this holds only
// because the load checks the whole file before it writes any weight: every
// decision keeps coming from version 1's model.
func TestFailedSwapLeavesReadersUntouched(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(47))
	const total = 8
	reqs := make([]Request, total)
	ctxs := make([]*sched.PickContext, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
		ctx, err := buildContext(sys, 6, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
	}
	want := offlinePicks(t, testAgent(sys, 19), sys, reqs)

	eng := newEngine(testAgent(sys, 19))

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	stop := make(chan struct{})
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var dst []int
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				var version uint64
				dst, version = eng.decide(ctxs, dst)
				if version != 1 {
					errs <- fmt.Errorf("reader %d: version moved to %d on failed swaps", k, version)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						errs <- fmt.Errorf("reader %d: request %d served %d, want %d", k, i, dst[i], want[i])
						return
					}
				}
			}
		}(k)
	}
	var good, other bytes.Buffer
	if err := testAgent(sys, 23).Save(&good); err != nil {
		t.Fatal(err)
	}
	wide := core.New(sys, core.Options{Window: 6, Seed: 23, Mutate: func(c *dfp.Config) {
		c.StateHidden, c.StateOut, c.ModuleHidden, c.StreamHidden = []int{24}, 12, 8, 20
		c.Offsets, c.TemporalWeights = []int{1, 2, 4}, []float64{0, 0.5, 1}
	}})
	if err := wide.Save(&other); err != nil {
		t.Fatal(err)
	}
	refused := [][]byte{[]byte("junk weights"), good.Bytes()[:good.Len()-1], other.Bytes()}
	for n := 0; n < 30; n++ {
		if _, err := eng.swap(bytes.NewReader(refused[n%len(refused)])); err == nil {
			t.Fatalf("refused swap %d succeeded", n%len(refused))
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
